//go:build !linux

package cputime

import "time"

var start = time.Now()

func thread() float64 { return time.Since(start).Seconds() }
