package httpsim

import (
	"testing"
	"time"

	"voxel/internal/invariant"
)

// TestWitnessHttpsimCompletesOnce: a stream left bound to a request that is
// over — here the cancelled request's own request stream, bound again as an
// unbind that was forgotten would leave it — delivers the answer, and the
// request that already failed completes: an httpsim.completes-once violation.
func TestWitnessHttpsimCompletesOnce(t *testing.T) {
	fx := newFixture(t, 10, 32, map[string]Object{"/a": content(1000)}, ServerOptions{})
	fx.s.SetChecker(invariant.New())
	r := fx.client.Get("/a", nil, false, nil)
	st := r.req
	r.Cancel()
	st.OnData(r.bound.reqData)
	st.OnFin(r.bound.reqFin)
	defer func() {
		rec := recover()
		if v, ok := invariant.AsViolation(rec); !ok || v.Rule != invariant.HttpsimCompletesOnce {
			t.Fatalf("recovered %v (complete %v, failed %v), want an httpsim.completes-once violation", rec, r.complete, r.failed)
		}
	}()
	fx.s.RunUntil(time.Second)
}
