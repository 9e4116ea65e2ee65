// Package spans is a lambdafs-vet golden fixture: spans and traces that
// can leak must be flagged; deferred, every-path, handed-off, and escaping
// spans must not.
package spans

import (
	"lambdafs/internal/clock"
	"lambdafs/internal/trace"
)

func badNeverEnded(tc *trace.Ctx) {
	sp := tc.Start(trace.KindGateway) // want spans
	sp.SetDetail("leaks")
}

func badLeakOnReturn(tc *trace.Ctx, err error) error {
	sp := tc.Start(trace.KindGateway) // want spans
	if err != nil {
		return err // leaks sp on this path
	}
	sp.End()
	return nil
}

func badDiscard(tc *trace.Ctx) {
	tc.Start(trace.KindGateway) // want spans
}

func badTraceNeverFinished(tr *trace.Tracer) {
	tc := tr.StartTrace("op", "/p", "c") // want spans
	sp := tc.Start(trace.KindGateway)
	sp.End()
}

func cleanDefer(tr *trace.Tracer) {
	tc := tr.StartTrace("op", "/p", "c")
	defer tc.Finish("")
	sp := tc.Start(trace.KindGateway)
	defer sp.End()
}

func cleanEveryPath(tc *trace.Ctx, err error) error {
	sp := tc.Start(trace.KindGateway)
	if err != nil {
		sp.Cancel()
		return err
	}
	sp.End()
	return nil
}

func cleanReopen(tc *trace.Ctx) {
	sp := tc.Start(trace.KindGateway)
	sp.End()
	sp = tc.Start(trace.KindAdmit)
	sp.End()
}

func cleanHandoff(clk *clock.Sim, tc *trace.Ctx) {
	sp := tc.Start(trace.KindGateway)
	clock.Go(clk, func() { sp.End() })
}

func cleanEscape(tc *trace.Ctx) *trace.ActiveSpan {
	sp := tc.Start(trace.KindGateway)
	return sp
}

func allowed(tc *trace.Ctx) {
	sp := tc.Start(trace.KindGateway) //vet:allow spans fixture demonstrating a reasoned suppression
	sp.SetDetail("suppressed")
}
