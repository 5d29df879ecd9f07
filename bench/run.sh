#!/bin/bash
# The command BENCHMARK.json names. The benchmark is a Go module of its
# own in this directory; build and run it from here, passing the driver's
# flags through (Go's flag package reads --flag like -flag).
cd "$(dirname "$0")" && exec go run . "$@"
