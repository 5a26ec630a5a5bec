// Command benchmark is the repository's one whole-stack benchmark. It
// builds cmd/wdmserve, drives the real binary over loopback TCP with two
// closed-loop connections on four workloads, checks every reply against
// a reference transcript, and then replays each workload in-process,
// layer by layer. README.md has the metric table, the workload
// rationale and what is not measured.
//
//	bash benchmark/run.sh                       # all workloads, both halves
//	bash benchmark/run.sh -smoke                # the same in about ten seconds
//	bash benchmark/run.sh -selfcheck            # two sets; noise against the bounds
//	bash benchmark/run.sh -record benchmark/baseline.json
//	bash benchmark/run.sh --workload big_read --seed 3 --seconds 15 --trace 0
//
// The last form is the driver's: one workload, one half, one JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	killChildren()
	os.Exit(code)
}

// smokeSeconds sizes -smoke: about a second per workload half.
const smokeSeconds = 1

// setupSamples is how many times a full run measures exec-to-first-reply
// per workload, rounds included.
const setupSamples = 15

// options are the settings shared by every mode.
type options struct {
	root    string
	bin     string
	seed    int64
	seconds int
	out     io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "repository root (default: the nearest parent directory holding the lightpath module)")
	name := fs.String("workload", "", "run one workload and print the driver's JSON line (default: all four, both halves)")
	seed := fs.Int64("seed", 1, "seed of the generated scripts")
	seconds := fs.Int("seconds", 0, "seconds of timed window per workload half (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny op counts and one round: checks the benchmark, measures nothing")
	selfcheck := fs.Bool("selfcheck", false, "run two end-to-end sets and compare their medians against the bounds")
	record := fs.String("record", "", "write the full report to this file as the recorded baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	o := options{root: *root, seed: *seed, seconds: *seconds, out: stdout}
	if o.root == "" {
		var err error
		if o.root, err = findRoot(); err != nil {
			return fail(err)
		}
	}
	sp, err := loadSpec(o.root)
	if err != nil {
		return fail(err)
	}
	if o.seconds <= 0 {
		o.seconds = sp.RunSeconds
	}
	if *smoke {
		o.seconds = smokeSeconds
	}
	if *record != "" {
		if err := recordable(o.root); err != nil {
			return fail(err)
		}
	}
	if o.bin, err = buildServer(o.root); err != nil {
		return fail(err)
	}

	switch {
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runHalf(o, w, *trace == 1)
		if err != nil {
			return fail(err)
		}
		return res.printDriverLine(stdout, sp)
	case *selfcheck:
		code, err := selfCheck(o, sp)
		if err != nil {
			return fail(err)
		}
		return code
	default:
		rep, err := fullRun(o, sp)
		if err != nil {
			return fail(err)
		}
		if *record != "" && rep.Failed == 0 {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return fail(err)
			}
			if err := os.WriteFile(*record, append(data, '\n'), 0o644); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "recorded %s\n", *record)
		}
		if rep.Failed > 0 {
			return 1
		}
		return 0
	}
}

// findRoot walks up from the working directory to the lightpath module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, _ := os.ReadFile(filepath.Join(dir, "go.mod")) // no go.mod here: look further up
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) == "module lightpath" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no lightpath module above the working directory; pass -root")
		}
		dir = parent
	}
}

// rounds splits a half's seconds into at most three rounds of at least
// five seconds, each against a fresh server.
func rounds(seconds int) (n int, each float64) {
	n = seconds / 5
	if n < 1 {
		n = 1
	}
	if n > 3 {
		n = 3
	}
	return n, float64(seconds) / float64(n)
}

// halfResult is one half (end-to-end or per-layer) of one workload.
type halfResult struct {
	plan      *plan
	attempted int
	failed    int
	notes     []string
	endToEnd  map[string]summary // untraced half
	perLayer  map[string]float64 // traced half
	took      time.Duration
}

func (h *halfResult) absorb(r *round) {
	h.attempted += r.attempted
	h.failed += r.failed
	h.notes = append(h.notes, r.notes...)
}

// runHalf generates the workload's scripts and reference transcript for
// the seed and runs one half against them.
func runHalf(o options, w *workload, traced bool) (*halfResult, error) {
	start := time.Now()
	n, each := rounds(o.seconds)
	p, err := makePlan(w, o.seed, int(math.Ceil(w.opsPerSec*each)))
	if err != nil {
		return nil, err
	}
	h := &halfResult{plan: p}
	if traced {
		replay := int(math.Ceil(w.replayPerSec * float64(o.seconds)))
		v, r, err := tracedRun(o.bin, p, wireFloorPing(o.seconds), replay)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		h.perLayer = v
		h.absorb(r)
	} else {
		var rs []*round
		var setups []time.Duration
		for i := 0; i < n; i++ {
			r, err := runRound(o.bin, p, warmPing, false)
			if err != nil {
				return nil, fmt.Errorf("%s: round %d: %w", w.name, i+1, err)
			}
			rs = append(rs, r)
			setups = append(setups, r.setup)
			h.absorb(r)
		}
		for len(setups) < setupSamples && o.seconds > smokeSeconds {
			d, err := setupOnly(o.bin, w)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			setups = append(setups, d)
		}
		h.endToEnd = summarizeRounds(rs, setups)
	}
	h.took = time.Since(start)
	return h, nil
}

// printDriverLine prints what the half measured and, last, the one JSON
// object the driver reads. It returns the process exit code.
func (h *halfResult) printDriverLine(w io.Writer, sp *spec) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: map[string]value{}}
	if h.perLayer != nil {
		for _, d := range perLayerDefs() {
			line.Metrics[d.name] = value{h.perLayer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEndDefs {
			line.Metrics[d.name] = value{h.endToEnd[d.name].Value, d.unit}
		}
	}
	h.printFacts(w)
	h.printTable(w, sp)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", data)
	if h.failed > 0 {
		return 1
	}
	return 0
}

// printFacts prints the counts the reference replay fixes, and any
// failure notes.
func (h *halfResult) printFacts(w io.Writer) {
	p := h.plan
	fmt.Fprintf(w, "%s seed %d: ops %d  failed %d  script %d+%d ops  blocked %d  leases %d  final epoch %d  oracle-checked %d  (%s)\n",
		p.w.name, p.seed, h.attempted, h.failed, len(p.conn0.ops), len(p.conn1.ops),
		p.blocked, p.leases, p.finalEpoch, p.oracleOK, h.took.Round(time.Millisecond))
	for _, n := range h.notes {
		fmt.Fprintf(w, "  FAILED %s\n", n)
	}
}

func (h *halfResult) printTable(w io.Writer, sp *spec) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if h.endToEnd != nil {
		fmt.Fprintln(tw, "  metric\tmedian\tunit\tbetter\tbound\tmin..max\trounds")
		for _, d := range clientDefs() {
			s := h.endToEnd[d.name]
			bound := "-"
			if b := sp.bound(d.name); b > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*b)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\t%.6g..%.6g\t%d\n", d.name, s.Value, d.unit, d.better, bound, s.Min, s.Max, s.N)
		}
	}
	if h.perLayer != nil {
		fmt.Fprintln(tw, "  metric\tvalue\tunit\tbetter")
		for _, d := range perLayerDefs() {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", d.name, h.perLayer[d.name], d.unit, d.better)
		}
		if lat := h.perLayer["client.latency_mean_us"]; lat > 0 {
			fmt.Fprintf(tw, "  core.route_ns_per_op is %.0f%% of the mean request latency\t\t\t\n",
				100*h.perLayer["core.route_ns_per_op"]*usPerNs/lat)
		}
	}
	tw.Flush()
}

// provenance says what was measured, on what, and how.
type provenance struct {
	Commit     string              `json:"git_commit"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NProc      int                 `json:"nproc"`
	CPU        string              `json:"cpu_model"`
	Kernel     string              `json:"kernel"`
	Seed       int64               `json:"seed"`
	Seconds    int                 `json:"seconds"`
	Rounds     int                 `json:"rounds"`
	Load       string              `json:"load"`
	Servers    map[string][]string `json:"server_flags"`
	Ops        map[string]int      `json:"timed_ops_connection_0"`
}

const loadStatement = "closed loop, 2 connections from one process, each waiting for its reply before sending the next; loopback TCP, not a real link"

func newProvenance(o options) provenance {
	n, each := rounds(o.seconds)
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		Kernel:     "unknown",
		Seed:       o.seed,
		Seconds:    o.seconds,
		Rounds:     n,
		Load:       loadStatement,
		Servers:    map[string][]string{},
		Ops:        map[string]int{},
	}
	for _, w := range workloads {
		p.Servers[w.name] = append([]string{"-listen", "127.0.0.1:0"}, w.serverArgs...)
		p.Ops[w.name] = int(math.Ceil(w.opsPerSec * each))
	}
	if out, err := gitOutput(o.root, "rev-parse", "HEAD"); err == nil {
		p.Commit = strings.TrimSpace(out)
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(data))
	}
	return p
}

func (p provenance) print(w io.Writer) {
	fmt.Fprintf(w, "commit %s  %s  GOMAXPROCS %d  nproc %d  cpu %q  kernel %s\n",
		p.Commit, p.GoVersion, p.GOMAXPROCS, p.NProc, p.CPU, p.Kernel)
	fmt.Fprintf(w, "seed %d  %d s per half in %d round(s), a fresh wdmserve each  load: %s\n",
		p.Seed, p.Seconds, p.Rounds, p.Load)
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %s: wdmserve %s  (%d timed ops on connection 0 per round)\n",
			wl.name, strings.Join(p.Servers[wl.name], " "), p.Ops[wl.name])
	}
}

func gitOutput(root string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	return string(out), err
}

// recordable refuses a baseline that would not mean what it says: one
// taken on a single core, where client and server cannot run side by
// side, or from a tree whose measured code differs from its commit.
// Markdown and the benchmark's own files do not change what is measured.
func recordable(root string) error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("refusing to record a baseline on %d CPU: the two connections and the server need two", runtime.NumCPU())
	}
	out, err := gitOutput(root, "status", "--porcelain", "--", ".",
		":(exclude)benchmark", ":(exclude)BENCHMARK.json", ":(exclude)*.md", ":(exclude).gitignore")
	if err != nil {
		return fmt.Errorf("refusing to record a baseline: git status: %w", err)
	}
	if strings.TrimSpace(out) != "" {
		return fmt.Errorf("refusing to record a baseline from a dirty tree:\n%s", out)
	}
	return nil
}

// report is the machine-readable form of a full run.
type report struct {
	Provenance provenance       `json:"provenance"`
	Failed     int              `json:"failed"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name       string             `json:"name"`
	Ops        int                `json:"ops"`
	Failed     int                `json:"failed"`
	Blocked    int                `json:"blocked"`
	Leases     int                `json:"leases"`
	FinalEpoch uint64             `json:"final_epoch"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	PerLayer   map[string]summary `json:"per_layer"`
}

// fullRun measures every workload, end to end and then layer by layer,
// prints every metric by name and ends with the report as one JSON
// document.
func fullRun(o options, sp *spec) (*report, error) {
	rep := &report{Provenance: newProvenance(o)}
	rep.Provenance.print(o.out)
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, PerLayer: map[string]summary{}}
		for _, traced := range []bool{false, true} {
			h, err := runHalf(o, w, traced)
			if err != nil {
				return nil, err
			}
			h.printFacts(o.out)
			h.printTable(o.out, sp)
			wr.Ops += h.attempted
			wr.Failed += h.failed
			wr.Blocked, wr.Leases, wr.FinalEpoch = h.plan.blocked, h.plan.leases, h.plan.finalEpoch
			if traced {
				for _, d := range perLayerDefs() {
					v := h.perLayer[d.name]
					wr.PerLayer[d.name] = summary{Value: v, Unit: d.unit, Min: v, Max: v, N: 1}
				}
			} else {
				wr.EndToEnd = h.endToEnd
			}
		}
		rep.Failed += wr.Failed
		rep.Workloads = append(rep.Workloads, wr)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "%s\n", data)
	return rep, nil
}

// selfCheck runs the end-to-end half of every workload twice, back to
// back, and compares the two medians of each gated metric with its
// bound: the tool that tells noise from change.
func selfCheck(o options, sp *spec) (int, error) {
	newProvenance(o).print(o.out)
	code := 0
	tw := tabwriter.NewWriter(o.out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tunit\tdifference\tbound\t")
	for _, w := range workloads {
		var sets [2]*halfResult
		for i := range sets {
			h, err := runHalf(o, w, false)
			if err != nil {
				return 1, err
			}
			if h.failed > 0 {
				h.printFacts(o.out)
				code = 1
			}
			sets[i] = h
		}
		for _, d := range endToEndDefs {
			a, b := sets[0].endToEnd[d.name].Value, sets[1].endToEnd[d.name].Value
			diff, bound := math.Abs(ratio(b-a, a)), sp.bound(d.name)
			verdict := ""
			if diff > bound {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.1f%%\t%.0f%%\t%s\n", w.name, d.name, a, b, d.unit, 100*diff, 100*bound, verdict)
		}
	}
	tw.Flush()
	return code, nil
}
