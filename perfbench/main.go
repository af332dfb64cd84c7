// Command perfbench is the repository's benchmark. It drives a
// webreason.Server through its public API with an open-loop load
// generator, checks every answer, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics — as the last line of its output.
//
//	bash perfbench/run.sh --workload lubm-read --seed 1 --seconds 30 --trace 0
//
// Workloads (see specs in workload.go): lubm-read, durable-write,
// reform-mixed. Lines before the result start with "#" and are
// informational: sample counts, generator lag, and in traced runs the
// paper's Figure 3 thresholds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	webreason "repro"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: the result plus informational lines.
type report struct {
	result
	info []string
	// invalid is set when the generator fell behind its schedule.
	invalid bool
}

func (r *report) logf(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload: lubm-read, durable-write or reform-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for data directories and span files")
	flag.Parse()
	sp := specByName(*name)
	if sp == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// One process per CPU of the machine the bounds were set on.
	runtime.GOMAXPROCS(clients)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(sp, *seed, window, work, *out)
	} else {
		rep, err = runPlain(sp, *seed, window, work)
	}
	if rmErr := os.RemoveAll(work); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	for _, l := range rep.info {
		fmt.Println("# " + l)
	}
	if rep.invalid {
		for k, m := range rep.Metrics {
			fmt.Fprintf(os.Stderr, "%s %g %s\n", k, m.Value, m.Unit)
		}
		fmt.Fprintln(os.Stderr, "perfbench: the load generator fell behind its schedule; the run is invalid")
		os.Exit(3)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// A plain run sets the workload up at least setupRuns times and for at
// least setupBudget; setup_s is the median. Cheap set-ups are repeated more
// often, so that their median holds steady from run to run.
const (
	setupRuns   = 5
	setupBudget = 3 * time.Second
)

// runPlain sets the workload up, measures one untraced window and reports
// the end-to-end metrics.
func runPlain(sp *spec, seed int64, window time.Duration, work string) (*report, error) {
	in, err := generate(sp, seed, window)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var (
		sys    *system
		setups []float64
	)
	for start := time.Now(); len(setups) < setupRuns || time.Since(start) < setupBudget; {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
			sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		if sys, err = setUp(sp, work, modePlain); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()
	if err := warm(sys, in); err != nil {
		return nil, err
	}
	win := drive(sys, in, false)
	if err := sys.settle(); err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	if err := rep.check(sys, in, win); err != nil {
		return nil, err
	}
	rep.generator(win)
	rep.set("setup_s", median(setups), "s")
	rep.set("read_mix_p50_us", win.read.mixP50US(), "us")
	rep.set("visible_mix_p50_us", win.visible.mixP50US(), "us")
	rep.set("ops_s", float64(len(in.ops))/win.elapsed.Seconds(), "ops/s")
	rep.set("heap_mb", heap, "MB")
	rep.logf("workload %s seed %d: %d operations offered at %.0f/s over %v", sp.name, seed, len(in.ops), sp.rate, window)
	rep.tails(win)
	rep.logf("setup_s: median of %d set-ups, min %.4f s, max %.4f s", len(setups), slices.Min(setups), slices.Max(setups))
	return rep, nil
}

// tails prints each sample's count, mix median, and median and 99th
// percentile over all its samples. The tails are set by collector cycles
// and by time the host takes from this machine, so they vary too much
// between runs to carry a bound; traced runs report them among the
// per-layer metrics.
func (r *report) tails(win *window) {
	for _, s := range []struct {
		name string
		s    classed
	}{{"read", win.read}, {"write", win.write}, {"visible", win.visible}} {
		if all := s.s.all(); len(all) > 0 {
			r.logf("%s: %d samples, mix p50 %.1f us, p50 %.1f us, p99 %.1f us",
				s.name, len(all), s.s.mixP50US(), all.quantileUS(0.5), all.quantileUS(0.99))
		}
	}
	if len(win.replica) > 0 {
		r.logf("replica_visible: %d samples, p50 %.1f us, p99 %.1f us", len(win.replica), win.replica.quantileUS(0.5), win.replica.quantileUS(0.99))
	}
}

// warm runs every canonical query, prepared and as text, so lazy set-up
// (plan pools, first compilations) finishes before the window.
func warm(sys *system, in *inputs) error {
	for k, p := range sys.prep {
		for r := 0; r < 3; r++ {
			if _, err := p.Answer(); err != nil {
				return err
			}
		}
		q, err := webreason.ParseQuery(in.canon[k])
		if err != nil {
			return err
		}
		if _, err := sys.srv.Query(q); err != nil {
			return err
		}
	}
	return nil
}

// liveHeapMB returns the live heap in MB after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// maxSendLag is the generator's lateness limit: a run in which the clients
// woke later than this for half the operations they were waiting to send
// did not offer the schedule's arrival process, and is invalid.
const maxSendLag = 5 * time.Millisecond

// generator reports how late the clients woke to send the operations they
// were waiting for, and marks the run invalid when the generator fell
// behind.
func (r *report) generator(win *window) {
	p50, p99 := win.lag.quantileUS(0.5), win.lag.quantileUS(0.99)
	r.logf("generator send lag p50 %.1f us, p99 %.1f us over %d sends (limit on p50 %v)", p50, p99, len(win.lag), maxSendLag)
	if p50 > float64(maxSendLag.Microseconds()) {
		r.invalid = true
	}
}
