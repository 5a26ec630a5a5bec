package serve

import (
	"strconv"
	"strings"
)

// ReplyKind classifies one reply line from the client's perspective.
type ReplyKind int

const (
	// ReplyOK is a successful answer (cost line, lease grant, released/
	// failed/repaired/epoch confirmation, ...).
	ReplyOK ReplyKind = iota
	// ReplyBusy is the admission queue shedding the request.
	ReplyBusy
	// ReplyBlocked is a routing answer: no semilightpath exists in the
	// residual network (or allocation retries were exhausted under
	// write contention) — the WDM-level blocking event the blocking-
	// probability experiments count.
	ReplyBlocked
	// ReplyProtocolError is every other "error:" line — malformed
	// input, unknown lease, out-of-range node. A correct closed-loop
	// client should never provoke one.
	ReplyProtocolError
)

// Classify buckets one reply line.
func Classify(line string) ReplyKind {
	switch {
	case line == "busy":
		return ReplyBusy
	case !strings.HasPrefix(line, "error:"):
		return ReplyOK
	case strings.Contains(line, "no semilightpath exists"),
		strings.Contains(line, "gave up after retries"):
		return ReplyBlocked
	default:
		return ReplyProtocolError
	}
}

// ParseLease extracts the lease ID from an alloc grant line
// ("lease 7 (epoch 42): cost ...").
func ParseLease(line string) (int64, bool) {
	if !strings.HasPrefix(line, "lease ") {
		return 0, false
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, false
	}
	id, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// ParseCost extracts the route cost from a "cost %g  ..." answer line
// (also accepting the indented batch / kshortest forms).
func ParseCost(line string) (float64, bool) {
	s := strings.TrimSpace(line)
	if i := strings.Index(s, "cost "); i >= 0 {
		s = s[i+len("cost "):]
	} else {
		return 0, false
	}
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
