package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sti/internal/model"
	"sti/internal/planner"
)

// Run executes one task-typed request against a plan — the engine's
// unified entry point. TaskClassify runs the layer-pipelined encoder
// pass as a one-input ExecuteBatch. TaskGenerate runs on a one-stream
// Batcher — the same step loop every fleet stream decodes on — so its
// paged KV is charged to the engine's grant (evicting top-layer
// preload shards first, failing with ErrKVBudget when no page fits),
// OnToken fires from the stream's emitter goroutine, and every token
// is delivered before Run returns.
// Cancelling ctx closes the batcher, aborting a cold shard stream
// between layers and the decode within one step; the partial Response
// comes back alongside ctx.Err().
func (e *Engine) Run(ctx context.Context, p *planner.Plan, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	switch req.Task {
	case TaskClassify:
		logits, bs, err := e.ExecuteBatch(ctx, p, []BatchInput{{Tokens: req.Tokens, Mask: req.Mask}})
		if err != nil {
			return nil, err
		}
		return &Response{Logits: logits[0], Stats: &bs.ExecStats}, nil
	default: // Validate admitted it, so it is TaskGenerate
		b := NewBatcher(e, BatcherOptions{MaxStreams: 1})
		defer b.Close()
		defer context.AfterFunc(ctx, b.Close)()
		res, err := b.Submit(ctx, p, req)
		var resp *Response
		if err == nil {
			out := <-res
			resp, err = out.Resp, out.Err
		}
		if errors.Is(err, ErrBatcherClosed) {
			// Only a cancelled ctx closes the batcher before Run returns.
			err = ctx.Err()
		}
		return resp, err
	}
}

// Materialize runs the plan's IO/decompress stream once and assembles
// the full submodel it describes — the same shard versions, cache hits
// and layer IO jobs as one classify execution, but retaining every
// assembled sub-layer instead of discarding it after compute. The
// returned stats describe that single stream.
func (e *Engine) Materialize(ctx context.Context, p *planner.Plan) (*model.Submodel, *ExecStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := e.Resident.Cfg
	if p.Depth > cfg.Layers || p.Width > cfg.Heads {
		return nil, nil, fmt.Errorf("pipeline: plan %dx%d exceeds model %dx%d", p.Depth, p.Width, cfg.Layers, cfg.Heads)
	}
	start := time.Now()
	stats := &ExecStats{
		LayerIO:      make([]time.Duration, p.Depth),
		LayerCompute: make([]time.Duration, p.Depth),
	}
	sm := &model.Submodel{Cfg: cfg, Parent: e.Resident}
	err := e.streamLayers(ctx, p, stats, nil, func(l int, sub *model.SubLayer) error {
		sm.Layers = append(sm.Layers, sub)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stats.Total = time.Since(start)
	return sm, stats, nil
}
