package edge

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"factcheck/internal/obs"
)

// ObsFlags registers the two observability flags every serving binary
// takes, -log-level and -debug-addr, and returns the function to call
// once flag.Parse has run: it builds the binary's structured logger
// (JSON lines on stderr, stamped with name) and, when -debug-addr is
// set, starts the private pprof listener and announces its bound
// address on stdout.
func ObsFlags() func(name string) (*slog.Logger, error) {
	level := flag.String("log-level", "info", "structured-log level for request logs on stderr (debug|info|warn|error); 4xx/5xx log at warn, served requests at debug")
	debug := flag.String("debug-addr", "", "listen address for the net/http/pprof diagnostics mux (empty = disabled; port 0 picks a free port)")
	return func(name string) (*slog.Logger, error) {
		lv, err := obs.ParseLevel(*level)
		if err != nil {
			return nil, err
		}
		if *debug != "" {
			bound, err := obs.DebugServer(*debug)
			if err != nil {
				return nil, err
			}
			fmt.Printf("%s: pprof diagnostics on http://%s/debug/pprof/\n", name, bound)
		}
		return obs.NewLogger(os.Stderr, name, lv), nil
	}
}

// Serve runs h on addr until SIGINT or SIGTERM. It announces
// "<name> listening on http://<bound> (<detail>)" on stdout — the
// bound address, not the requested one, so scripts can pass host:0 and
// parse the port — then serves. On a signal it prints
// "<name>: <signal>, draining", gives in-flight requests ten seconds to
// finish, calls onStop and prints "<name>: stopped". A listen or serve
// failure is returned before anything is announced as stopped.
func Serve(name, addr, detail string, h http.Handler, onStop func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Signals are caught before the address is announced: whoever reads
	// the announce line may stop the process right away.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("%s listening on http://%s (%s)\n", name, ln.Addr(), detail)
	server := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := <-sig
		fmt.Printf("%s: %s, draining\n", name, s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = server.Shutdown(ctx)
	}()
	if err := server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-done
	onStop()
	fmt.Printf("%s: stopped\n", name)
	return nil
}
