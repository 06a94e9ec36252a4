//go:build !linux

package main

import (
	"runtime"
	"time"
)

func lockPacerThread() { runtime.LockOSThread() }

func sleepFor(d time.Duration) { time.Sleep(d) }
