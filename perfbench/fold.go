package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// shareLayers are the layers cpu_share reports. Samples whose innermost
// armnet package is not one of them, or that sit in the benchmark's own
// code, count as "other".
var shareLayers = []string{"admission", "core", "maxmin", "topology", "des", "eventbus", "wire", "testnet", "signal", "other"}

// profileTraces prints a CPU profile's samples with the toolchain's
// pprof, one stack per block.
func profileTraces(binary, profile string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", binary, profile).Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// foldTraces turns `go tool pprof -traces` text into each layer's share
// of the samples labelled as benchmark work. A sample belongs to the
// innermost armnet/internal package on its stack; sortx frames are
// charged to their caller.
func foldTraces(text string) (map[string]float64, error) {
	weights := make(map[string]time.Duration, len(shareLayers))
	var total time.Duration
	var (
		inBlock, labelled, started bool
		value                      time.Duration
		frames                     []string
	)
	flush := func() {
		if started && labelled {
			weights[layerOf(frames)] += value
			total += value
		}
		labelled, started, value, frames = false, false, 0, frames[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || line == "" {
			continue
		}
		if !started {
			if k, v, ok := strings.Cut(line, ":"); ok && k == workLabel {
				labelled = labelled || strings.TrimSpace(v) == "work"
				continue
			}
			fields := strings.Fields(line)
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // another label
			}
			started, value = true, d
			line = strings.Join(fields[1:], " ")
		}
		frames = append(frames, strings.TrimSuffix(line, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("profile has no samples labelled %s=work", workLabel)
	}
	shares := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = float64(weights[l]) / float64(total)
	}
	return shares, nil
}

// layerOf attributes a leaf-first stack to a layer.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "other"
		}
		rest, ok := strings.CutPrefix(f, "armnet/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if rest == "sortx" {
			continue
		}
		for _, l := range shareLayers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	return "other"
}
