package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"partmb/internal/service"
)

// params.json fixes every workload parameter, the listed seeds and the
// expected paper-sweep digests. It is embedded so a built binary carries
// the exact parameters it was built with.
//
//go:embed params.json
var paramsJSON []byte

// Params is the decoded params.json.
type Params struct {
	// Seeds lists the default seed and the held-out seed reserved for
	// checking claims; both have an expected digest.
	Seeds struct {
		Default int64 `json:"default"`
		HeldOut int64 `json:"held_out"`
	} `json:"seeds"`
	PaperSweep     PaperSweepParams `json:"paper_sweep"`
	ShardedStencil StencilParams    `json:"sharded_stencil"`
	SweepdMix      MixParams        `json:"sweepd_mix"`
}

// PaperSweepParams pins the figure sweep's expected outputs.
type PaperSweepParams struct {
	// Cells, Runs and Hits are the engine counts of one pass.
	Cells int64 `json:"cells"`
	Runs  int64 `json:"runs"`
	Hits  int64 `json:"hits"`
	// Digests maps a seed to the SHA-256 of the text tables
	// `figures -fig all -scale quick` prints with that platform seed.
	Digests map[string]string `json:"digests"`
	// SetupReps is how many set-up samples, each a batch of runner
	// builds, are taken before every pass.
	SetupReps int `json:"setup_reps"`
}

// StencilParams describes the two sharded simulations of one pass.
type StencilParams struct {
	Shards       int     `json:"shards"`
	Mapping      string  `json:"mapping"`
	NoisePercent float64 `json:"noise_percent"`
	// IntraWingNS / InterWingNS are the Dragonfly+ link latencies; wings
	// are aligned with the shard blocks.
	IntraWingNS int64 `json:"intra_wing_ns"`
	InterWingNS int64 `json:"inter_wing_ns"`
	Halo        struct {
		Ranks         int    `json:"ranks"`
		ThreadsPerDim int    `json:"threads_per_dim"`
		FaceBytes     int64  `json:"face_bytes"`
		ComputeNS     int64  `json:"compute_ns"`
		Repeats       int    `json:"repeats"`
		Mode          string `json:"mode"`
	} `json:"halo3d"`
	Sweep struct {
		Ranks          int    `json:"ranks"`
		Threads        int    `json:"threads"`
		BytesPerThread int64  `json:"bytes_per_thread"`
		ComputeNS      int64  `json:"compute_ns"`
		ZBlocks        int    `json:"zblocks"`
		Octants        int    `json:"octants"`
		Repeats        int    `json:"repeats"`
		Mode           string `json:"mode"`
	} `json:"sweep3d"`
	// SetupReps is how many set-up passes, with shard-window recording, a
	// plain run makes before its body.
	SetupReps int `json:"setup_reps"`
}

// MixParams describes sweepd-mix's request stream.
type MixParams struct {
	// RateRPS is the traced run's open-loop phase's fixed arrival rate.
	RateRPS float64 `json:"rate_rps"`
	// OpenFrac is the share of a traced run's body spent in the open-loop
	// phase; the rest, and all of a plain run's body, is the closed loop.
	OpenFrac float64 `json:"open_frac"`
	// ColdEvery: one request in every ColdEvery uses a fresh seed (a cold
	// cell); the others draw from the hot pool.
	ColdEvery int `json:"cold_every"`
	// Spec is every request's spec but its seed: cmd/sweepload's default
	// spec. HotPool is the number of hot specs, each with a seed derived
	// from the run's seed.
	Spec    service.Spec `json:"spec"`
	HotPool int          `json:"hot_pool"`
	// QueueDepth is the server's admission queue behind MaxActive = nproc.
	QueueDepth int `json:"queue_depth"`
	// BatchRequests is the closed-loop block wall_s is measured over.
	BatchRequests int `json:"batch_requests"`
	// SetupReps is how many times a plain run builds the server: before
	// the body and between its closed-loop segments of at least a second.
	SetupReps int `json:"setup_reps"`
}

func loadParams() (Params, error) {
	var p Params
	if err := json.Unmarshal(paramsJSON, &p); err != nil {
		return p, fmt.Errorf("params.json: %w", err)
	}
	return p, nil
}
