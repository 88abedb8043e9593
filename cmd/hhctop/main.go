// Command hhctop is a live terminal dashboard for a running hhcd (or any
// binary serving the shared -listen debug endpoints). It polls /metrics,
// /debug/series, and /debug/requests and renders the service's pulse:
// request and shed rates, windowed latency quantiles, queue pressure, the
// observability layer's own health, and the slowest retained requests.
//
// Usage:
//
//	hhctop -addr 127.0.0.1:6060              # refresh every 2s until ^C
//	hhctop -addr 127.0.0.1:6060 -refresh 1s
//	hhctop -addr 127.0.0.1:6060 -once        # one frame, no screen control (CI)
//
// The dashboard is server-agnostic: anything the series ring samples is
// shown, with a dedicated service summary when the pathsvc_* metric set is
// present.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6060", "debug address of the observed process (its -listen value)")
	cluster := flag.String("cluster", "",
		"comma-separated peer debug addresses; render the side-by-side per-peer fleet panel instead of one server's dashboard")
	refresh := flag.Duration("refresh", 2*time.Second, "poll and redraw at this period")
	once := flag.Bool("once", false, "render a single frame without screen control and exit (for CI and piping)")
	slowN := flag.Int("slow", 5, "slowest retained requests to list (0 = hide the section)")
	rates := flag.Int("rates", 8, "busiest counter rates to list")
	timeout := flag.Duration("timeout", 5*time.Second, "per-poll HTTP timeout")
	obsf := cliutil.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	err := obsf.Activate()
	if err == nil {
		err = run(os.Stdout, flag.Args(), topOpts{
			addr: *addr, cluster: *cluster, refresh: *refresh, once: *once,
			slowN: *slowN, rates: *rates, timeout: *timeout,
		})
	}
	if cerr := obsf.Close(os.Stdout); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhctop:", err)
		os.Exit(1)
	}
}

type topOpts struct {
	addr    string
	cluster string
	refresh time.Duration
	once    bool
	slowN   int
	rates   int
	timeout time.Duration
}

func run(w io.Writer, args []string, o topOpts) error {
	if err := cliutil.NoTrailingArgs(args); err != nil {
		return err
	}
	if o.refresh <= 0 {
		return fmt.Errorf("-refresh %s out of range: must be positive", o.refresh)
	}
	client := &http.Client{Timeout: o.timeout}
	if o.cluster != "" {
		return runFleet(w, client, o)
	}
	base := "http://" + o.addr
	if o.once {
		frame, err := poll(client, base)
		if err != nil {
			return err
		}
		render(w, o, frame)
		return nil
	}
	for {
		frame, err := poll(client, base)
		if err != nil {
			return err
		}
		// Clear and home between frames, top-style; errors abort the loop so
		// a dead server ends the session instead of spinning on a blank
		// screen.
		fmt.Fprint(w, "\x1b[2J\x1b[H")
		render(w, o, frame)
		time.Sleep(o.refresh)
	}
}

// peerFrame is one fleet-panel row: a peer's poll result or its failure.
// A dead peer stays a visible row — the fleet view's job is exactly to
// show which member dropped out, not to abort on it.
type peerFrame struct {
	addr string
	f    frame
	err  error
}

// runFleet drives the -cluster panel: every peer polled each cycle, one
// row per peer with its qps, window latency, and forward traffic.
func runFleet(w io.Writer, client *http.Client, o topOpts) error {
	var addrs []string
	for _, p := range strings.Split(o.cluster, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return fmt.Errorf("-cluster %q: empty peer entry", o.cluster)
		}
		addrs = append(addrs, p)
	}
	for {
		rows := make([]peerFrame, 0, len(addrs))
		for _, addr := range addrs {
			f, err := poll(client, "http://"+addr)
			rows = append(rows, peerFrame{addr: addr, f: f, err: err})
		}
		if !o.once {
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		renderFleet(w, rows)
		if o.once {
			return nil
		}
		time.Sleep(o.refresh)
	}
}

// renderFleet prints the side-by-side per-peer table. The down column is
// how many cluster members this peer's breaker currently holds down —
// disagreement across rows localizes a partition.
func renderFleet(w io.Writer, rows []peerFrame) {
	fmt.Fprintf(w, "hhctop cluster  %s  %d peers\n\n", time.Now().Format("15:04:05"), len(rows))
	fmt.Fprintf(w, "  %-22s %8s %10s %10s %10s %10s %9s %5s\n",
		"peer", "qps", "p50", "p99", "fwd-out/s", "fwd-in/s", "errs/s", "down")
	for _, r := range rows {
		if r.err != nil {
			fmt.Fprintf(w, "  %-22s unreachable: %v\n", r.addr, r.err)
			continue
		}
		p := latestPoint(r.f.series)
		prom := r.f.metrics
		down := 0
		for name, v := range prom {
			if strings.HasPrefix(name, "cluster_peer_down{") && v > 0 {
				down++
			}
		}
		fmt.Fprintf(w, "  %-22s %8s %10s %10s %10s %10s %9s %5d\n",
			r.addr,
			fmtRate(p.Rates["pathsvc_completed_total"]),
			fmtSecs(prom[`pathsvc_request_seconds_window{q="p50"}`]),
			fmtSecs(prom[`pathsvc_request_seconds_window{q="p99"}`]),
			fmtRate(p.Rates["cluster_forwarded_total"]),
			fmtRate(p.Rates["cluster_forwarded_in_total"]),
			fmtRate(p.Rates["cluster_forward_errors_total"]),
			down)
	}
}

// frame is everything one poll gathered. Requests is optional (nil when
// the server exposes no flight recorder); series and metrics are required
// — without them there is nothing to show.
type frame struct {
	at       time.Time
	series   obs.SeriesSnapshot
	metrics  map[string]float64
	requests *obs.RequestsSnapshot
}

func poll(client *http.Client, base string) (frame, error) {
	f := frame{at: time.Now()}
	if err := getJSON(client, base+"/debug/series", &f.series); err != nil {
		return f, fmt.Errorf("%s/debug/series: %w (is the server running with -listen?)", base, err)
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return f, err
	}
	f.metrics = parseProm(resp.Body)
	resp.Body.Close()
	var rq obs.RequestsSnapshot
	if err := getJSON(client, base+"/debug/requests?format=json", &rq); err == nil {
		f.requests = &rq
	}
	return f, nil
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// parseProm reads the Prometheus text exposition into name{labels}→value.
// Only the subset the registry emits is handled (no escaping, one value
// per line), which is exactly what the paired server produces.
func parseProm(r io.Reader) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

func render(w io.Writer, o topOpts, f frame) {
	last := latestPoint(f.series)
	fmt.Fprintf(w, "hhctop %s  %s  interval %s  %d/%d points\n\n",
		o.addr, f.at.Format("15:04:05"),
		time.Duration(f.series.IntervalNS), len(f.series.Points), f.series.Capacity)

	renderService(w, last, f.metrics)
	renderRates(w, o.rates, last)
	renderHists(w, last, f.series.Summary)
	renderObsHealth(w, f.metrics)
	if o.slowN > 0 && f.requests != nil {
		renderSlowest(w, o.slowN, f.requests)
	}
}

func latestPoint(s obs.SeriesSnapshot) obs.SeriesPoint {
	if len(s.Points) == 0 {
		return obs.SeriesPoint{}
	}
	return s.Points[len(s.Points)-1]
}

// renderService prints the pathsvc one-liner when the metric set is
// present; other servers (hhcsim) simply skip it.
func renderService(w io.Writer, p obs.SeriesPoint, prom map[string]float64) {
	if _, ok := prom["pathsvc_queue_capacity"]; !ok {
		return
	}
	fmt.Fprintf(w, "  service   qps %s  shed %s/s  degraded %s/s\n",
		fmtRate(p.Rates["pathsvc_completed_total"]),
		fmtRate(p.Rates["pathsvc_shed_total"]),
		fmtRate(p.Rates["pathsvc_degraded_total"]))
	fmt.Fprintf(w, "  queue     depth %.0f/%.0f  active workers %.0f  open conns %.0f\n",
		prom["pathsvc_queue_depth"], prom["pathsvc_queue_capacity"],
		prom["pathsvc_active_workers"], prom["pathsvc_open_conns"])
	fmt.Fprintf(w, "  latency   p50 %s  p95 %s  p99 %s   (10s window)\n",
		fmtSecs(prom[`pathsvc_request_seconds_window{q="p50"}`]),
		fmtSecs(prom[`pathsvc_request_seconds_window{q="p95"}`]),
		fmtSecs(prom[`pathsvc_request_seconds_window{q="p99"}`]))
	renderCluster(w, p, prom)
	fmt.Fprint(w, "\n")
}

// renderCluster prints the sharded-serving line when this peer exposes the
// cluster_* series (hhcd -peers); single-node servers simply skip it.
func renderCluster(w io.Writer, p obs.SeriesPoint, prom map[string]float64) {
	if _, ok := prom["cluster_forwarded_total"]; !ok {
		return
	}
	down := 0
	for name, v := range prom {
		if strings.HasPrefix(name, "cluster_peer_down{") && v > 0 {
			down++
		}
	}
	fmt.Fprintf(w, "  cluster   %.0f peers (%d down)  fwd-out %s/s  fwd-in %s/s  fwd-errs %s/s  degraded-local %s/s\n",
		prom["cluster_peers"], down,
		fmtRate(p.Rates["cluster_forwarded_total"]),
		fmtRate(p.Rates["cluster_forwarded_in_total"]),
		fmtRate(p.Rates["cluster_forward_errors_total"]),
		fmtRate(p.Rates["cluster_degraded_local_total"]))
}

func renderRates(w io.Writer, n int, p obs.SeriesPoint) {
	type kv struct {
		name string
		rate float64
	}
	var rows []kv
	for name, r := range p.Rates {
		if r > 0 {
			rows = append(rows, kv{name, r})
		}
	}
	if len(rows) == 0 {
		fmt.Fprint(w, "  rates     (no counter activity in the last interval)\n\n")
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rate != rows[j].rate {
			return rows[i].rate > rows[j].rate
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	fmt.Fprint(w, "  rates     ")
	for i, r := range rows {
		if i > 0 {
			fmt.Fprint(w, "\n            ")
		}
		fmt.Fprintf(w, "%-40s %s/s", r.name, fmtRate(r.rate))
	}
	fmt.Fprint(w, "\n\n")
}

func renderHists(w io.Writer, p obs.SeriesPoint, summary map[string]obs.HistPoint) {
	if len(p.Hists) == 0 && len(summary) == 0 {
		return
	}
	names := make([]string, 0, len(summary))
	for name := range summary {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprint(w, "  hist                                               last interval              ring summary\n")
	for _, name := range names {
		h, s := p.Hists[name], summary[name]
		fmt.Fprintf(w, "    %-44s p50 %-9s p99 %-9s p50 %-9s p99 %-9s\n",
			name, fmtSecs(h.P50), fmtSecs(h.P99), fmtSecs(s.P50), fmtSecs(s.P99))
	}
	fmt.Fprint(w, "\n")
}

// renderObsHealth surfaces the telemetry layer's own counters: dropped
// spans mean the -trace stream is lossy and the numbers elsewhere are
// undercounting.
func renderObsHealth(w io.Writer, prom map[string]float64) {
	dropped, hasDropped := prom["obs_trace_dropped_total"]
	recorded, hasRecorded := prom["obs_requests_recorded_total"]
	if !hasDropped && !hasRecorded {
		return
	}
	fmt.Fprintf(w, "  obs       spans %.0f (dropped %.0f)  requests recorded %.0f (errored %.0f)\n\n",
		prom["obs_trace_spans_total"], dropped,
		recorded, prom["obs_requests_errored_total"])
}

func renderSlowest(w io.Writer, n int, rq *obs.RequestsSnapshot) {
	fmt.Fprintf(w, "  slowest requests (%d seen, %d errored)\n", rq.Total, rq.Errored)
	if len(rq.Slowest) == 0 {
		fmt.Fprint(w, "    none retained\n")
		return
	}
	rows := rq.Slowest
	if len(rows) > n {
		rows = rows[:n]
	}
	for _, tr := range rows {
		outcome := "ok"
		if tr.Code != "" {
			outcome = tr.Code
		}
		fmt.Fprintf(w, "    %-10s %-8s %10s  %s\n",
			tr.ID, tr.Op, time.Duration(tr.Dur), outcome)
	}
}

// fmtRate renders a per-second rate compactly (1234 -> "1234", 0.5 -> "0.5").
func fmtRate(v float64) string {
	if v >= 100 || v == float64(int64(v)) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// fmtSecs renders a duration given in seconds with ms/µs granularity.
func fmtSecs(s float64) string {
	if s <= 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
