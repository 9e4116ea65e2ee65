// Package clock provides virtual time for the λFS simulation substrate.
//
// Every latency in the system — HTTP invocation overhead, TCP round trips,
// NDB service times, cold starts — is expressed in *virtual* time and
// charged to the one clock there is: Sim (sim.go), the discrete-event clock
// that is also the only scheduler of its goroutines. Experiments, the
// benchmark, lambdafs.Cluster, every chaos episode and every unit test run
// on it: a 300-second industrial workload executes in wall-clock seconds,
// latencies are exact whatever the host's timer granularity, and a seeded
// run is bit-identical on any number of Ps — so a failing test replays.
//
// Goroutines of the simulation wait only through the clock: Sleep for time;
// a Mailbox, Event or Group (wait.go) for anything else, each optionally
// bounded by a Deadline; a Queue (queue.go) for a modeled server's
// capacity. Code outside the simulation (a test body, an application
// calling the public API) enters through Run.
//
// Idle is the one exception left: a park on a raw channel, kept only because
// benchmark/run.go joins its clients that way and only a benchmark PR may
// edit it (ROADMAP item 8(d)); the note above Idle in sim.go says what goes
// with it.
package clock

import "time"

// Epoch is the virtual time origin of every Sim, so that timestamps from
// independent components are comparable.
var Epoch = time.Date(2023, time.March, 25, 0, 0, 0, 0, time.UTC)
