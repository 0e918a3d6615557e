// Package experiment is the evaluation harness: one runner per table and
// figure of the paper's evaluation (§4), regenerating the same rows and
// series the paper reports.
//
// Absolute numbers come from the virtual-time cost model (calibrated to
// the paper's Figure 3 component costs), so they are not expected to match
// the 2004 testbed exactly; the relational results — which style wins,
// by roughly what factor, where the feasibility crossovers fall — are the
// reproduction targets, recorded in EXPERIMENTS.md.
package experiment

import (
	"versadep/internal/gcs"
	"versadep/internal/trace"
	"versadep/internal/vtime"
)

// Options parameterize an experiment run.
type Options struct {
	// Requests is the per-client cycle length. The paper uses 10,000;
	// tests and quick runs use less.
	Requests int
	// Seed drives all deterministic randomness.
	Seed uint64
	// Model is the virtual-time cost model.
	Model vtime.CostModel
	// RequestBytes and ReplyBytes pad application messages (Table 1's
	// request/response sizes).
	RequestBytes, ReplyBytes int
	// StateBytes is the application state size (Table 1).
	StateBytes int
	// ExecCost is the servant's execution time per request.
	ExecCost vtime.Duration
	// CheckpointEvery is the passive-style checkpoint frequency knob.
	CheckpointEvery int
	// Voting enables majority voting instead of first-response
	// filtering at clients.
	Voting bool
	// TraceSink, when set, receives each environment's merged cross-node
	// trace snapshot (counters, histograms, causal spans of every replica
	// and client) as the environment shuts down, labeled
	// "<style>-r<replicas>-c<clients>". vdbench -trace wires this to a
	// JSON dump per scenario.
	TraceSink func(label string, snap trace.Snapshot)
	// TransferChunkBytes overrides the joiner state-transfer chunk size
	// (0 = engine default).
	TransferChunkBytes int
	// GCS overrides every replica's group-communication config (nil =
	// gcs.DefaultConfig). vdsim builds it from its -detector flag.
	GCS *gcs.Config
}

// gcsConfig returns a copy of the GCS override, or the default config.
func (o Options) gcsConfig() gcs.Config {
	if o.GCS != nil {
		return *o.GCS
	}
	return gcs.DefaultConfig()
}

// DefaultOptions returns the calibrated configuration used throughout the
// evaluation: micro-benchmark sizes chosen so that the Figure 3 breakdown,
// the Figure 7 latency/bandwidth shapes and the Table 2 feasibility
// crossovers reproduce the paper's.
func DefaultOptions() Options {
	return Options{
		Requests:        400,
		Seed:            1,
		Model:           vtime.DefaultCostModel(),
		RequestBytes:    200,
		ReplyBytes:      160,
		StateBytes:      6144,
		ExecCost:        15 * vtime.Microsecond,
		CheckpointEvery: 5,
	}
}
