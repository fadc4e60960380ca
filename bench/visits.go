package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/board"
	"palaemon/internal/core"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/obs"
	"palaemon/internal/policy"
	"palaemon/internal/wire"
)

// The operations a visit is made of; each is one request at the edge.
const (
	opFetch = iota
	opAttest
	opPushTag
	opNotifyExit
	opUpdate
	numOps
)

var (
	opNames    = [numOps]string{"fetch", "attest", "push_tag", "notify_exit", "update"}
	clientSpan = [numOps]string{"core.Client.FetchSecrets", "core.Client.Attest", "core.Client.PushTag", "core.Client.NotifyExit", "core.Client.UpdatePolicy"}
	// leafSpan groups, on the leaf rung, the leaves one operation reaches.
	leafSpan = [numOps]string{"leaf/fetch", "leaf/attest", "leaf/push_tag", "leaf/notify_exit", "leaf/update"}
	instSpan = [numOps]string{"Instance.FetchSecrets", "Instance.AttestApplication", "Instance.PushTag", "Instance.NotifyExit", "Instance.UpdatePolicy"}
	// routes are the ServeMux patterns the server labels its request
	// histogram with.
	routes = [numOps]string{"/v2/policies/{name}/secrets", "/v2/attest", "/v2/tags", "/v2/exit", "/v2/policies/{name}"}
)

const (
	fleetClientSpan = "fleet.Client.UpdatePolicy"
	soloSpan        = "solo.Instance.UpdatePolicy"
)

// The rungs of the layer ladder. The untraced run only ever uses the edge.
const (
	rungEdge = iota
	rungInstance
	rungLeaf
	numRungs
)

var visitSpan = [numRungs]string{"visit/edge", "visit/instance", "visit/leaf"}

// visit performs one generated visit on one rung and checks its output.
func (c *client) visit(ctx context.Context, o op, rung int) error {
	st := c.pols[o.policy]
	switch o.kind {
	case visitFetch:
		return c.fetch(ctx, st, rung)
	case visitAttest:
		return c.attest(ctx, st, o, rung)
	default:
		return c.update(ctx, st, o, rung)
	}
}

// call times one operation: a span in the traced run and, on success, a
// sample of its kind.
func (c *client) call(kind int, name string, f func() error) error {
	s := c.rec.begin(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	c.rec.end(s)
	if err == nil {
		c.kinds[kind].add(d)
	}
	c.yield()
	return err
}

// leaf times one leaf call.
func (c *client) leaf(name string, f func() error) error {
	s := c.rec.begin(name)
	err := f()
	c.rec.end(s)
	c.yield()
	return err
}

// yield gives up the processor after a call below the edge. At the edge
// the HTTP exchange separates a client's calls; in-process they would
// follow each other within a microsecond, and the client that has just
// released the store's lock would take it again before the waiting one
// is scheduled, until Go's mutex enters starvation mode a millisecond
// later. Per-call times then split into a fast mode and a 1.3 ms one that
// belong to the calling pattern and not to the layer.
func (c *client) yield() {
	if c.belowEdge {
		runtime.Gosched()
	}
}

func (c *client) fetch(ctx context.Context, st *polState, rung int) error {
	if rung == rungLeaf {
		return c.leaf(leafSpan[opFetch], func() error {
			if c.env.sp.governed {
				if err := c.evaluate(ctx, st, st.pol, "read"); err != nil {
					return err
				}
			}
			return c.codec(wire.FetchSecretsRequest{}, &wire.FetchSecretsRequest{},
				wire.SecretsResponse{Secrets: st.secrets}, &wire.SecretsResponse{})
		})
	}
	var got map[string]string
	var err error
	if rung == rungEdge {
		err = c.call(opFetch, clientSpan[opFetch], func() (err error) {
			got, err = c.core.FetchSecrets(ctx, st.name, nil, nil)
			return err
		})
	} else {
		err = c.call(opFetch, instSpan[opFetch], func() (err error) {
			got, err = c.env.instance(st).FetchSecrets(ctx, c.id, st.name, nil)
			return err
		})
	}
	if err != nil {
		return err
	}
	return st.checkSecrets(got)
}

// checkSecrets requires exactly the secrets the seed generated, the
// rotated one at its last acknowledged value.
func (st *polState) checkSecrets(got map[string]string) error {
	if len(got) != len(st.secrets) {
		return fmt.Errorf("%s: %d secrets released, want %d", st.name, len(got), len(st.secrets))
	}
	for k, want := range st.secrets {
		if got[k] != want {
			return fmt.Errorf("%s: secret %s = %q, want %q", st.name, k, got[k], want)
		}
	}
	return nil
}

// attest is one application execution as internal/runtime performs it:
// session key and quote, attestation, tag pushes, exit notification.
func (c *client) attest(ctx context.Context, st *polState, o op, rung int) error {
	s := c.rec.begin("sgx.quote")
	signer, err := cryptoutil.NewSigner()
	if err != nil {
		c.rec.end(s)
		return err
	}
	ev := attest.NewEvidence(c.enclave, st.name, "app", signer.Public)
	c.rec.end(s)

	pushes := c.env.sp.pushes
	tags := make([]fspf.Tag, pushes+1)
	for i := range tags {
		tags[i] = derive(o.nonce, i+1)
	}
	if rung == rungLeaf {
		return c.attestLeaves(ev, st, tags)
	}

	inst := c.env.instance(st)
	var cfg *core.AppConfig
	if rung == rungEdge {
		err = c.call(opAttest, clientSpan[opAttest], func() (err error) {
			cfg, err = c.core.Attest(ctx, ev, c.quotingKey, nil)
			return err
		})
	} else {
		err = c.call(opAttest, instSpan[opAttest], func() (err error) {
			cfg, err = inst.AttestApplication(ctx, ev, c.quotingKey)
			return err
		})
	}
	if err != nil {
		return err
	}
	if err := st.checkSecrets(cfg.Secrets); err != nil {
		return err
	}
	if cfg.Epoch <= st.epoch {
		return fmt.Errorf("%s: epoch %d after %d, want an increase", st.name, cfg.Epoch, st.epoch)
	}
	if cfg.ExpectedTag != st.lastTag {
		return fmt.Errorf("%s: expected tag %s, last pushed %s", st.name, cfg.ExpectedTag, st.lastTag)
	}
	st.epoch = cfg.Epoch
	c.lastCfg = cfg

	for i, tag := range tags {
		kind, exit := opPushTag, i == pushes
		if exit {
			kind = opNotifyExit
		}
		if rung == rungEdge {
			err = c.call(kind, clientSpan[kind], func() error {
				if exit {
					return c.core.NotifyExit(ctx, cfg.SessionToken, tag)
				}
				return c.core.PushTag(ctx, cfg.SessionToken, tag, nil)
			})
		} else {
			err = c.call(kind, instSpan[kind], func() error {
				if exit {
					return inst.NotifyExit(cfg.SessionToken, tag)
				}
				return inst.PushTag(cfg.SessionToken, tag)
			})
		}
		if err != nil {
			return err
		}
		st.lastTag = tag
	}
	return nil
}

// update rotates one secret and the command string of a policy.
func (c *client) update(ctx context.Context, st *polState, o op, rung int) error {
	value := secretValue(o.nonce)
	rotate := func(p *policy.Policy) *policy.Policy {
		next := p.Clone()
		next.Secrets[0].Value = value
		next.Services[0].Command = fmt.Sprintf("serve --gen %d --token $$%s", uint32(o.nonce), rotated)
		return next
	}
	next := rotate(st.pol)
	if rung == rungLeaf {
		return c.leaf(leafSpan[opUpdate], func() error { return c.updateLeaves(ctx, st, next) })
	}

	var err error
	switch {
	case rung == rungEdge && c.fleet != nil:
		// The traced run alternates the routing client with a direct one
		// on the owner shard; their difference is the routing layer.
		c.edgeN++
		if c.rec != nil && c.edgeN%2 == 0 {
			err = c.call(opUpdate, clientSpan[opUpdate], func() error { return c.direct[st.shard].UpdatePolicy(ctx, next) })
		} else {
			err = c.call(opUpdate, fleetClientSpan, func() error { return c.fleet.UpdatePolicy(ctx, next) })
		}
	case rung == rungEdge:
		err = c.call(opUpdate, clientSpan[opUpdate], func() error { return c.core.UpdatePolicy(ctx, next) })
	default:
		// On a fleet the instance rung alternates the owner shard with the
		// standalone instance; their difference is the replication barrier.
		c.instN++
		if c.env.solo != nil && c.instN%2 == 0 {
			soloNext := rotate(st.solo)
			if err := c.leaf(soloSpan, func() error { return c.env.solo.UpdatePolicy(ctx, c.id, soloNext) }); err != nil {
				return err
			}
			st.solo = soloNext
			return nil
		}
		err = c.call(opUpdate, instSpan[opUpdate], func() error { return c.env.instance(st).UpdatePolicy(ctx, c.id, next) })
	}
	if err != nil {
		st.uncertain++
		return err
	}
	st.pol = next
	st.secrets[rotated] = value
	st.acked++
	return nil
}

// --- Leaf rung: the leaves a visit reaches, called directly on scratch
// resources with the visit's real inputs. ---

func (c *client) evaluate(ctx context.Context, st *polState, p *policy.Policy, operation string) error {
	req := board.Request{PolicyName: st.name, Operation: operation, Revision: st.baseRev + st.acked, Digest: board.DigestPolicy(p)}
	return c.leaf("board.evaluate", func() error {
		if d := c.env.eval.Evaluate(ctx, c.env.board, req); !d.Approved {
			return fmt.Errorf("%s: board refused %s: %+v", st.name, operation, d)
		}
		return nil
	})
}

// codec encodes and decodes one request and one response, as the client
// and the server do between them.
func (c *client) codec(req, reqOut, resp, respOut any) error {
	return c.leaf("wire.codec", func() error {
		for _, pair := range [2][2]any{{req, reqOut}, {resp, respOut}} {
			raw, err := json.Marshal(pair[0])
			if err != nil {
				return err
			}
			if err := json.Unmarshal(raw, pair[1]); err != nil {
				return err
			}
		}
		return nil
	})
}

// put stores a value of the stored record's size in the scratch database,
// in the deployment's durability mode (per-record fsync). Waiting for
// another client's put is part of it, as it is part of the instance's, but
// is its own span so that the put's self time stays seal+chain.
func (c *client) put(bucket, key string, value []byte) error {
	e := c.env
	return c.leaf("kvdb.put", func() error {
		wait := c.rec.begin("kvdb.wait")
		e.scratchMu.Lock()
		c.rec.end(wait)
		defer e.scratchMu.Unlock()
		e.scratchFS.rec = c.rec
		return e.scratchDB.Put(bucket, key, value)
	})
}

func (c *client) auditAppend(event string, st *polState) error {
	return c.leaf("obs.audit_append", func() error {
		return c.env.scratchAudit.Append(obs.AuditEvent{Event: event, Outcome: "ok", Tenant: c.id.Short(), Policy: st.name, Service: "app", RequestID: "0123456789abcdef"})
	})
}

// attestLeaves makes the four durable writes of an execution in the
// instance's order: the attestation's epoch bump and audit record, then
// one tag record per push and one for the exit.
func (c *client) attestLeaves(ev attest.Evidence, st *polState, tags []fspf.Tag) error {
	record := func(tag fspf.Tag) []byte {
		return []byte(fmt.Sprintf(`{"tag":%q,"running":true,"clean_exit":false,"epoch":%d}`, tag.String(), st.epoch))
	}
	key := st.name + "\x00app"
	if err := c.leaf(leafSpan[opAttest], func() error {
		if err := c.leaf("attest.verify", func() error { return attest.VerifyBinding(ev, c.quotingKey) }); err != nil {
			return err
		}
		if err := c.put("tags", key, record(st.lastTag)); err != nil {
			return err
		}
		if err := c.auditAppend("attest", st); err != nil {
			return err
		}
		return c.codec(wire.AttestRequest{Evidence: ev, QuotingKey: c.quotingKey}, &wire.AttestRequest{}, c.lastCfg, &wire.AppConfig{})
	}); err != nil {
		return err
	}
	for i, tag := range tags {
		op := opPushTag
		if i == len(tags)-1 {
			op = opNotifyExit
		}
		if err := c.leaf(leafSpan[op], func() error {
			if err := c.put("tags", key, record(tag)); err != nil {
				return err
			}
			return c.codec(wire.TagPush{Token: c.lastCfg.SessionToken, Tag: tag}, &wire.TagPush{}, wire.OKResponse{OK: true}, &wire.OKResponse{})
		}); err != nil {
			return err
		}
	}
	return nil
}

func (c *client) updateLeaves(ctx context.Context, st *polState, next *policy.Policy) error {
	current, err := json.Marshal(st.pol)
	if err != nil {
		return err
	}
	// What the next touch of an invalidated policy pays.
	if err := c.leaf("policy.decode_compile", func() error {
		var p policy.Policy
		if err := json.Unmarshal(current, &p); err != nil {
			return err
		}
		policy.Compile(&p)
		return nil
	}); err != nil {
		return err
	}
	var stored *policy.Policy
	if err := c.leaf("policy.validate_materialize", func() error {
		if err := next.Validate(); err != nil {
			return err
		}
		stored = next.Clone()
		return stored.MaterializeSecrets()
	}); err != nil {
		return err
	}
	if c.env.sp.governed {
		if err := c.evaluate(ctx, st, stored, "update"); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(stored)
	if err != nil {
		return err
	}
	if err := c.put("policies", st.name, raw); err != nil {
		return err
	}
	if err := c.auditAppend("policy.update", st); err != nil {
		return err
	}
	return c.codec(next, &policy.Policy{}, wire.NameResponse{Name: st.name}, &wire.NameResponse{})
}
