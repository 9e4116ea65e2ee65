package bench

import (
	"os"
	"path/filepath"
	"strings"

	"lambdafs/internal/telemetry"
)

// sanitizeName reduces an experiment label to a filesystem-friendly slug:
// lowercase ASCII letters and digits survive, every other rune becomes a
// dash, and runs of dashes collapse ("λFS ReducedCache" → "fs-reducedcache").
func sanitizeName(label string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(label) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	parts := strings.FieldsFunc(b.String(), func(r rune) bool { return r == '-' })
	return strings.Join(parts, "-")
}

// writeTelemetryArtifacts dumps one experiment's telemetry plane into dir:
// <name>.prom holds the final registry state in Prometheus text exposition
// format, and <name>-snapshots.json holds the virtual-time scrape series.
// The scraper may be nil when only the final state is of interest.
func writeTelemetryArtifacts(dir, name string, reg *telemetry.Registry, sc *telemetry.Scraper) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".prom"))
	if err != nil {
		return err
	}
	if err := telemetry.WritePrometheus(f, reg); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if sc == nil {
		return nil
	}
	g, err := os.Create(filepath.Join(dir, name+"-snapshots.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteSnapshotsJSON(g, sc.Snapshots()); err != nil {
		_ = g.Close()
		return err
	}
	return g.Close()
}

// dumpFlight writes the recorder's retained window as JSONL into dir/name,
// returning the written path.
func dumpFlight(dir, name string, fr *telemetry.FlightRecorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := fr.DumpJSONL(f); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
