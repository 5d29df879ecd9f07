// Structured leveled logging shared by the daemon and every cmd/
// tool: one flag-registration helper, one setup call. All logs go to
// stderr (stdout carries artifacts; see the prosim report regression
// test), text by default, JSON with -log-json.
package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// LogConfig is the parsed logging flags of one tool.
type LogConfig struct {
	// Level is the minimum level: debug, info, warn, error.
	Level string
	// JSON switches the handler to one JSON object per line.
	JSON bool
}

// LogFlags registers -log-level and -log-json on fs (nil means
// flag.CommandLine) and returns the config the flags fill in. Call
// (*LogConfig).Setup after fs.Parse.
func LogFlags(fs *flag.FlagSet) *LogConfig {
	if fs == nil {
		fs = flag.CommandLine
	}
	lc := &LogConfig{}
	fs.StringVar(&lc.Level, "log-level", "info", "minimum log level: debug, info, warn or error")
	fs.BoolVar(&lc.JSON, "log-json", false, "emit one JSON object per log line instead of text")
	return lc
}

// ParseLevel maps a level name (case-insensitive) to its slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// Setup builds the logger described by lc writing to os.Stderr,
// installs it as the slog default, and returns it. An unknown level is
// an error (tools treat it as a flag-usage failure).
func (lc *LogConfig) Setup() (*slog.Logger, error) {
	return lc.SetupWriter(os.Stderr)
}

// SetupWriter is Setup with an explicit sink (tests capture output).
func (lc *LogConfig) SetupWriter(w io.Writer) (*slog.Logger, error) {
	level, err := ParseLevel(lc.Level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if lc.JSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	slog.SetDefault(l)
	return l, nil
}

// Discard returns a logger that drops everything — the nil-object for
// Config.Log fields.
func Discard() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 128}))
}
