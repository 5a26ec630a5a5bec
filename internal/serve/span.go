package serve

// Span names and attribute keys for the serve layer (compile-time
// constants, verified by the metricname analyzer). serve_request is the
// root span of every request trace — started by the TCP front-end
// before admission (so queue wait is inside the trace) or by
// Session.Exec for REPL/script transports.
const (
	spanRequest   = "serve_request"
	spanQueueWait = "serve_queue_wait"
	spanExec      = "serve_exec"
)

const (
	attrVerb    = "verb"
	attrOutcome = "outcome"
	attrRemote  = "remote"
)

// Root-span outcome values.
const (
	outcomeOK    = "ok"
	outcomeError = "error"
	outcomeShed  = "shed"
)

// DefaultTraceList is how many traces the recent/slow verbs list when
// called without a count.
const DefaultTraceList = 16
