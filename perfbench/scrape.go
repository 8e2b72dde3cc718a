package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of a daemon's /metrics: the value of every
// unlabeled sample, which includes each histogram's _sum and _count.
// Bucket and labeled lines are skipped; the benchmark only needs means.
type scrape map[string]float64

func fetchScrape(ctx context.Context, c *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", base, resp.StatusCode)
	}
	return parseScrape(b)
}

// parseScrape reads Prometheus text exposition lines of the form
// "name value".
func parseScrape(b []byte) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[name] = v
	}
	return s, sc.Err()
}

// delta is the growth of one sample between two scrapes.
func (s scrape) delta(before scrape, name string) float64 { return s[name] - before[name] }

// histMean is the mean observation of histogram name between two
// scrapes, and how many observations it rests on.
func (s scrape) histMean(before scrape, name string) (float64, float64) {
	n := s.delta(before, name+"_count")
	if n == 0 {
		return 0, 0
	}
	return s.delta(before, name+"_sum") / n, n
}
