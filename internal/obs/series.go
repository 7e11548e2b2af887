package obs

// Hardening metric series (DESIGN.md §13). The serving path's hostile-traffic
// counters are read both by the handlers that increment them and by the chaos
// and fuzz suites that assert on them, so their (name, help) pairs live here
// once — the registry keys a family by name and the help text must agree at
// every call site.

// ServePanics counts analyses that panicked and were converted to a 500
// instead of killing the daemon.
func (m *Metrics) ServePanics() *Counter {
	return m.Counter("scaltool_serve_panics_total",
		"analyses that panicked; each was isolated to a 500 and quarantined")
}

// ServeShed counts requests refused before execution, by reason: "queue"
// (admission queue full), "ledger" (per-server cost budget exhausted),
// "drain" (server shutting down).
func (m *Metrics) ServeShed(reason string) *Counter {
	return m.Counter("scaltool_serve_shed_total",
		"analyses shed before execution, by reason", "reason", reason)
}

// ServeRejected counts requests refused by admission control, by HTTP status
// class: "400" malformed, "413" over budget, "422" semantically invalid.
func (m *Metrics) ServeRejected(code string) *Counter {
	return m.Counter("scaltool_serve_rejected_total",
		"requests refused by validation or admission control, by status", "code", code)
}

// ServeQuarantined counts requests refused because their shape previously
// panicked the analysis pipeline.
func (m *Metrics) ServeQuarantined() *Counter {
	return m.Counter("scaltool_serve_quarantined_total",
		"requests refused because an identical request previously panicked")
}

// RuncacheCorrupt counts spill entries whose integrity check failed on load,
// by damage class: "crc" (checksum mismatch), "torn" (short frame), "header"
// (bad magic/version), "decode" (payload undecodable).
func (m *Metrics) RuncacheCorrupt(class string) *Counter {
	return m.Counter("scaltool_runcache_corrupt_total",
		"spill entries quarantined after failing their integrity check, by damage class", "class", class)
}

// RequestSeconds is the end-to-end request latency histogram of the serving
// path, by route — every endpoint records into it, so /metrics exposes p99
// per route (Histogram.Quantile reads the same buckets in-process).
func (m *Metrics) RequestSeconds(route string) *Histogram {
	return m.Histogram("scaltool_serve_request_seconds",
		"end-to-end request latency in seconds, by route", LatencyBuckets, "route", route)
}

// DiagnoseReports counts culprit reports produced by internal/diagnose.
func (m *Metrics) DiagnoseReports() *Counter {
	return m.Counter("scaltool_diagnose_reports_total",
		"scaling-loss diagnosis reports produced")
}

// DiagnoseLossCycles observes the measured scaling loss of each diagnosis.
func (m *Metrics) DiagnoseLossCycles() *Histogram {
	return m.Histogram("scaltool_diagnose_loss_cycles",
		"measured scaling loss per diagnosis, in cycles", CycleBuckets)
}

// ResponseCache counts response-cache lookups, by route and outcome ("hit"
// or "miss").
func (m *Metrics) ResponseCache(route, outcome string) *Counter {
	return m.Counter("scaltool_serve_response_cache_total",
		"response-cache lookups, by route and outcome", "route", route, "outcome", outcome)
}

// AdmittedCycles gauges the predicted simulated cycles of work currently
// admitted and executing (the server ledger's cycle occupancy).
func (m *Metrics) AdmittedCycles() *Gauge {
	return m.Gauge("scaltool_admission_inflight_cycles",
		"predicted simulated cycles of admitted in-flight analyses")
}

// AdmittedBytes gauges the predicted allocation footprint of work currently
// admitted and executing (the server ledger's byte occupancy).
func (m *Metrics) AdmittedBytes() *Gauge {
	return m.Gauge("scaltool_admission_inflight_bytes",
		"predicted allocation footprint of admitted in-flight analyses")
}
