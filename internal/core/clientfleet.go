package core

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"palaemon/internal/wire"
)

// Fleet-facing client calls (DESIGN.md §14). Signature and epoch checks
// on the discovery document are NOT done here — they belong to the fleet
// client (internal/fleet), which holds the fleet's document key and the
// last verified epoch. This layer only moves bytes.

// FetchFleetDoc retrieves the shard's current discovery document
// (GET /v2/fleet). Callers MUST verify the signature and epoch before
// routing by it.
func (c *Client) FetchFleetDoc(ctx context.Context) (*wire.FleetDoc, error) {
	var doc wire.FleetDoc
	if err := c.do(ctx, http.MethodGet, "/fleet", nil, &doc, nil); err != nil {
		return nil, err
	}
	return &doc, nil
}

// ReplState fetches the leader's bootstrap state (GET /v2/repl/state);
// follower-only (the server checks the client certificate fingerprint).
func (c *Client) ReplState(ctx context.Context) (*wire.ReplState, error) {
	var st wire.ReplState
	if err := c.do(ctx, http.MethodGet, "/repl/state", nil, &st, nil); err != nil {
		return nil, err
	}
	return &st, nil
}

// ReplTail fetches committed entries with Seq > from (GET /v2/repl/tail);
// follower-only. wait > 0 long-polls: the server parks the request until
// the next commit or the window expires (an empty batch is the
// keep-alive). The effective window is capped below the client's own
// request timeout, like the watch long-poll.
func (c *Client) ReplTail(ctx context.Context, from uint64, max int, wait time.Duration) (*wire.ReplTailResponse, error) {
	if lim := c.timeout - time.Second; wait > 0 {
		if lim <= 0 {
			lim = c.timeout / 2
		}
		if wait > lim {
			wait = lim
		}
	}
	path := "/repl/tail?from=" + strconv.FormatUint(from, 10)
	if max > 0 {
		path += "&max=" + strconv.Itoa(max)
	}
	if wait > 0 {
		path += "&wait_ms=" + strconv.FormatInt(wait.Milliseconds(), 10)
	}
	// Single-shot like the watch long-poll: the follower owns the tail
	// loop and must see errors (especially repl_truncated) immediately.
	var resp wire.ReplTailResponse
	if err := c.doOnce(ctx, http.MethodGet, path, nil, &resp, nil); err != nil {
		return nil, err
	}
	return &resp, nil
}
