package main

import "encoding/json"

// The benchmark's contract, in one place: workloads, end-to-end metrics
// with their regression bounds, per-layer metrics. BENCHMARK.json at the
// repository root is this table rendered by `-manifest`; a test keeps
// the two equal.

// runSeconds is the measured window the driver asks for.
const runSeconds = 10

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// endToEnd are the figures a user of the system feels. Every workload
// reports every one of them, none is ever 0, and each carries the share
// of the parent's median by which it may worsen.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

func lower(unit string, names ...string) []metricDecl {
	out := make([]metricDecl, len(names))
	for i, n := range names {
		out[i] = metricDecl{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDecl {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

// perLayer are single layers' figures, layer = module name. They carry
// no bound: they explain an end-to-end movement, they do not gate.
var perLayer = concat(
	lower("ns", "cdr.encode_ns", "cdr.decode_ns"),
	lower("1/op", "cdr.encode_allocs"),
	lower("ns", "giop.request_encode_ns", "giop.request_decode_ns", "giop.frame_write_ns", "giop.frame_read_ns",
		"giop.frame_write_64k_ns", "giop.frame_read_64k_ns"),
	lower("1/op", "giop.frame_allocs"),
	lower("ns", "bufpool.getput_ns", "bufpool.getput_64k_ns"),
	lower("ns", "svcctx.inject_extract_ns"),
	lower("ns", "orb.collocated_ns", "orb.self_ns", "orb.adapter_resolve_ns"),
	lower("1/op", "orb.collocated_allocs"),
	higher("count", "orb.requests_served"),
	lower("count", "orb.errors"),
	lower("ns", "simnet.call_ns", "simnet.self_ns"),
	lower("count", "simnet.msgs"),
	lower("B", "simnet.bytes"),
	lower("ns", "iiop.rtt_ns", "iiop.self_ns", "iiop.rtt_64k_ns", "iiop.oneway_send_ns"),
	lower("1/op", "iiop.rtt_allocs"),
	lower("ms", "iiop.dial_ms"),
	lower("count", "iiop.transient_refused", "iiop.timeouts"),
	lower("ns", "idl.encode_ns", "idl.decode_ns"),
	lower("1/op", "idl.encode_allocs"),
	lower("ms", "idl.parse_ms"),
	lower("ns", "dii.call_ns", "dii.self_ns", "dii.signature_ns"),
	lower("1/op", "dii.call_allocs"),
	lower("ns", "gateway.handler_ns", "gateway.self_ns", "gateway.http_ns", "gateway.http_self_ns", "gateway.hit_ns"),
	lower("1/op", "gateway.handler_allocs", "gateway.hit_allocs"),
	higher("ratio", "gateway.cache_hit_ratio"),
	lower("count", "gateway.invalidations", "gateway.rejected", "gateway.status_5xx", "gateway.transbufs_leaked"),
	lower("ns", "events.push_ns"),
	lower("1/op", "events.push_allocs"),
	lower("us", "events.local_deliver_p50_us", "events.remote_deliver_p50_us"),
	higher("count", "events.batch_size_mean", "events.delivered"),
	lower("count", "events.dropped"),
	lower("ms", "node.subscribe_ms", "node.install_ms"),
	lower("us", "node.local_query_us"),
	lower("s", "cohesion.form_s"),
	lower("ms", "cohesion.join_ms", "cohesion.heal_p50_ms", "cohesion.rejoin_p50_ms"),
	lower("B/node/s", "cohesion.steady_bytes_per_node_s"),
	lower("1/node/s", "cohesion.msgs_per_node_s"),
	lower("count", "cohesion.deltas_sent", "cohesion.pulls_served", "cohesion.hints_sent", "cohesion.gossip_batches"),
	lower("ns", "cohesion.directory_unmarshal_ns"),
	lower("ms", "deploy.place_ms"),
	lower("us", "gen.late_p99_us"),
	higher("1/s", "gen.offered_per_s"),
	higher("ratio", "trace.overhead_ratio"),
	// Demoted from the end-to-end list; benchmark/README.md says why.
	lower("us", "tail.p99_us"),
	lower("ratio", "raw.fail_ratio"),
	lower("us/op", "raw.cpu_us_per_op"),
	lower("1/op", "raw.allocs_per_op"),
	lower("B/op", "raw.alloc_bytes_per_op"),
	lower("B/node/s", "raw.ctl_bytes_per_node_s"),
)

func concat(parts ...[]metricDecl) []metricDecl {
	var out []metricDecl
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	decls := make([]workloadDecl, len(workloads))
	for i, w := range workloads {
		decls[i] = workloadDecl{Name: w.name, Why: w.why}
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	e2e := make([]bounded, len(endToEnd))
	for i, m := range endToEnd {
		e2e[i] = bounded(m)
	}
	return json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []bounded      `json:"end_to_end"`
		PerLayer   []metricDecl   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  decls,
		EndToEnd:   e2e,
		PerLayer:   perLayer,
	}, "", "  ")
}
