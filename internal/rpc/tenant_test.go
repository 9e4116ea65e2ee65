package rpc_test

import (
	"errors"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/rpc"
	"lambdafs/internal/simtest"
	"lambdafs/internal/tenant"
)

// TestClientCarriesTenant: Client.Tenant reaches the engines' admission
// gate over both transports. A client tagged with a tenant whose bucket
// never holds a whole token is throttled end to end — on its first op
// (HTTP, through the gateway) and on the next (TCP) — while an untagged
// client on the same system bypasses admission.
func TestClientCarriesTenant(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := ndb.New(clk, ndb.DefaultConfig())
		coord := coordinator.NewZK(clk, coordinator.DefaultConfig())
		fCfg := faas.DefaultConfig()
		fCfg.ColdStart, fCfg.GatewayLatency, fCfg.IdleReclaim = 0, 0, 0
		p := faas.New(clk, fCfg)
		t.Cleanup(p.Close)

		treg := tenant.NewRegistry(clk, nil)
		starved := treg.Register(tenant.Class{Name: "starved", OpsPerSec: 1e-9})
		sysCfg := core.DefaultSystemConfig()
		sysCfg.Deployments = 1
		sysCfg.Engine.Admission = treg
		sys := core.NewSystem(clk, db, coord, p, sysCfg)

		rCfg := rpc.DefaultConfig()
		rCfg.HTTPReplaceProb = 0
		vm := rpc.NewVM(clk, rCfg)

		tagged := vm.NewClient("tagged", sys.Ring(), sys)
		tagged.Tenant = "starved"
		for i, transport := range []string{"http", "tcp"} {
			resp, err := tagged.Do(namespace.OpStat, "/", "")
			if err != nil {
				t.Fatalf("%s: transport error %v", transport, err)
			}
			if !errors.Is(resp.Error(), namespace.ErrThrottled) {
				t.Fatalf("%s: tagged client answered %q, want throttled", transport, resp.Err)
			}
			if st := tagged.Stats(); i == 1 && (st.HTTPRPCs != 1 || st.TCPRPCs != 1) {
				t.Fatalf("second op did not go TCP: %+v", st)
			}
		}
		plain := vm.NewClient("plain", sys.Ring(), sys)
		if resp, err := plain.Do(namespace.OpStat, "/", ""); err != nil || !resp.OK() {
			t.Fatalf("untagged client: %v %v", resp, err)
		}
		if starved.Inflight() != 0 {
			t.Fatalf("throttled ops left %d in flight", starved.Inflight())
		}
	})
}
