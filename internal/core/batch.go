package core

import (
	"context"
	"fmt"
	"net/http"

	"palaemon/internal/wire"
)

// execBatch runs the ops of one POST /v2/batch sequentially against the
// instance and returns one result per op, in order. Ops fail
// independently — a failed op carries its structured error while its
// siblings proceed — so one round trip can mix secret fetches across
// policies with tag pushes (the Fig 12 WAN collapse). The client
// identity comes from the TLS certificate.
//
// hasID reports whether a client identity is present at all; ops that
// release policy content (fetch_secrets, read_policy) refuse without one,
// exactly as their standalone endpoints do.
func execBatch(ctx context.Context, inst *Instance, id ClientID, hasID bool, ops []wire.BatchOp) ([]wire.BatchResult, error) {
	if len(ops) > wire.MaxBatchOps {
		return nil, wire.NewError(wire.CodeBatchTooLarge, http.StatusBadRequest, false,
			fmt.Sprintf("core: batch of %d ops exceeds the %d-op cap", len(ops), wire.MaxBatchOps))
	}
	results := make([]wire.BatchResult, len(ops))
	for n := range ops {
		results[n] = execBatchOp(ctx, inst, id, hasID, n, &ops[n])
	}
	return results, nil
}

func execBatchOp(ctx context.Context, inst *Instance, id ClientID, hasID bool, n int, op *wire.BatchOp) wire.BatchResult {
	fail := func(err error) wire.BatchResult {
		e := wireFromError(err)
		if e.Detail == "" {
			e.Detail = fmt.Sprintf("batch op %d (%s)", n, op.Op)
		}
		return wire.BatchResult{Error: e}
	}
	switch op.Op {
	case wire.OpFetchSecrets:
		if !hasID {
			return fail(ErrAccessDenied)
		}
		secrets, err := inst.FetchSecrets(ctx, id, op.Policy, op.Names)
		if err != nil {
			return fail(err)
		}
		return wire.BatchResult{Secrets: secrets}
	case wire.OpReadPolicy:
		if !hasID {
			return fail(ErrAccessDenied)
		}
		p, err := inst.ReadPolicy(ctx, id, op.Policy)
		if err != nil {
			return fail(err)
		}
		return wire.BatchResult{Policy: p}
	case wire.OpReadTag:
		tag, err := inst.ExpectedTag(op.Policy, op.Service)
		if err != nil {
			return fail(err)
		}
		return wire.BatchResult{Tag: tag.String()}
	case wire.OpPushTag:
		if op.Tag == nil {
			return fail(wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
				"core: push_tag op carries no tag"))
		}
		if err := inst.PushTag(op.Token, *op.Tag); err != nil {
			return fail(err)
		}
		return wire.BatchResult{OK: true}
	case wire.OpNotifyExit:
		if op.Tag == nil {
			return fail(wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
				"core: notify_exit op carries no tag"))
		}
		if err := inst.NotifyExit(op.Token, *op.Tag); err != nil {
			return fail(err)
		}
		return wire.BatchResult{OK: true}
	default:
		return fail(wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
			fmt.Sprintf("core: unknown batch op %q", op.Op)))
	}
}
