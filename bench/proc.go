package main

import (
	"context"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// command prepares a program under test so that it can never outlive the
// run: it leads its own process group, and cancelling ctx kills the whole
// group — odrcoord's worker processes with it. GOMAXPROCS is pinned to P
// so the child is no wider than the benchmark says it is.
func command(ctx context.Context, p int, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(p))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	return cmd
}
