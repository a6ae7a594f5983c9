package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gddr/internal/metrics"
)

// samples is one scrape of a Prometheus text exposition, keyed by the
// series as rendered: name plus its label block, e.g.
// `gddr_fleet_route_seconds_sum{tenant="default"}`.
type samples map[string]float64

func parseProm(r io.Reader) (samples, error) {
	s := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed exposition value in %q: %w", line, err)
		}
		s[line[:i]] += v
	}
	return s, sc.Err()
}

// scrapeRegistry renders an in-process registry the way /metrics does and
// parses it back, so library and gateway runs read one format.
func scrapeRegistry(reg *metrics.Registry) (samples, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

// delta returns after − before for one series.
func delta(before, after samples, key string) float64 { return after[key] - before[key] }

// meanDelta returns the mean observation of a histogram series over the
// window between two scrapes: Δsum / Δcount (0 when nothing was observed).
func meanDelta(before, after samples, name, labels string) float64 {
	return ratio(delta(before, after, name+"_sum"+labels), delta(before, after, name+"_count"+labels))
}
