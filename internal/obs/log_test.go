package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"log/slog"
	"strings"
	"testing"
)

func TestLogFlagsAndSetup(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	lc := LogFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-log-json"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	l, err := lc.SetupWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hello", "k", 7)
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatalf("-log-json line not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["k"] != float64(7) || rec["level"] != "DEBUG" {
		t.Fatalf("record = %v", rec)
	}

	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("unknown level accepted")
	}
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo,
		"warning": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestTextLoggingBelowLevelIsDropped(t *testing.T) {
	var buf bytes.Buffer
	lc := &LogConfig{Level: "warn"}
	l, err := lc.SetupWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("level filtering broken: %q", out)
	}
}

func TestDiscardLoggerIsSilent(t *testing.T) {
	Discard().Error("nothing") // must not panic, must not write anywhere visible
}
