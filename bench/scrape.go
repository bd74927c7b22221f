package bench

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// counters is one reading of a server's GET /metrics: every sample's
// name with its label block, exactly as exposed, and its value. Two
// readings around a phase give what the server itself measured during
// it. /metrics takes the index's writer lock like /v1/stats does, so it
// is read between phases only.
type counters map[string]float64

func scrape(p *Proc) (counters, error) {
	resp, err := http.Get(p.URL() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: %s /metrics answered %s", p.Name, resp.Status)
	}
	c := counters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("bench: %s /metrics: malformed line %q", p.Name, line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bench: %s /metrics: %q: %w", p.Name, line, err)
		}
		c[line[:cut]] = v
	}
	return c, sc.Err()
}

// scrapeAll reads every process's /metrics.
func scrapeAll(procs []*Proc) (map[*Proc]counters, error) {
	out := make(map[*Proc]counters, len(procs))
	for _, p := range procs {
		c, err := scrape(p)
		if err != nil {
			return nil, err
		}
		out[p] = c
	}
	return out, nil
}

// window is what one server counted between two readings.
type window struct{ before, after counters }

// delta is the growth of one sample over the window.
func (w window) delta(sample string) float64 { return w.after[sample] - w.before[sample] }

// mean is the mean observation, in the family's own unit, of a
// histogram over the window, and the number of observations behind it.
// labels is the family's label block ("" for none).
func (w window) mean(family, labels string) (float64, int) {
	n := w.delta(family + "_count" + labels)
	if n <= 0 {
		return 0, 0
	}
	return w.delta(family+"_sum"+labels) / n, int(n)
}

// setMeanUs records a histogram of seconds as a per-observation mean in
// microseconds, when the server observed anything in the window.
func (w window) setMeanUs(r *Result, name, family, labels string) {
	if s, n := w.mean(family, labels); n > 0 {
		r.set(name, s*1e6, n)
	}
}

func routeLabel(route string) string { return `{route="` + route + `"}` }
