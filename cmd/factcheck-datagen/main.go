// Command factcheck-datagen materialises a synthetic corpus (§8.1 shaped)
// as JSON for inspection or external tooling.
//
// Usage:
//
//	factcheck-datagen -profile wiki -scale 0.2 -seed 42 -out corpus.json
//	factcheck-datagen -profile snopes -stats
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"factcheck/internal/synth"
)

// fileCorpus is the JSON schema written by this tool.
type fileCorpus struct {
	Profile   string       `json:"profile"`
	Seed      int64        `json:"seed"`
	Sources   []fileSource `json:"sources"`
	Documents []fileDoc    `json:"documents"`
	Claims    []fileClaim  `json:"claims"`
}

type fileSource struct {
	ID       int       `json:"id"`
	Features []float64 `json:"features"`
	Trust    float64   `json:"latent_trust"`
}

type fileDoc struct {
	ID       int       `json:"id"`
	Source   int       `json:"source"`
	Features []float64 `json:"features"`
	Refs     []fileRef `json:"refs"`
}

type fileRef struct {
	Claim  int    `json:"claim"`
	Stance string `json:"stance"`
}

type fileClaim struct {
	ID       int  `json:"id"`
	Credible bool `json:"credible"`
	Order    int  `json:"posting_order"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status injectable: 2 for a bad
// invocation, 1 for an I/O failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("factcheck-datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile   = fs.String("profile", "wiki", "corpus profile: wiki, health or snopes")
		scale     = fs.Float64("scale", 1.0, "size scale factor (> 0)")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "", "output file (default stdout)")
		statsOnly = fs.Bool("stats", false, "print corpus statistics instead of JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	prof, err := synth.ByName(*profile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if !(*scale > 0) { // also refuses NaN
		fmt.Fprintf(stderr, "factcheck-datagen: -scale must be positive, got %v\n", *scale)
		return 2
	}
	if *scale != 1 {
		prof = prof.Scaled(*scale)
	}
	corpus, err := synth.GenerateChecked(prof, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *statsOnly {
		fmt.Fprintf(stdout, "%s (seed %d): %s\n", prof.Name, *seed, corpus.DB.Stats())
		hard := 0
		for _, v := range corpus.Truth {
			if v {
				hard++
			}
		}
		fmt.Fprintf(stdout, "credible claims: %d of %d\n", hard, len(corpus.Truth))
		return 0
	}

	fc := fileCorpus{Profile: prof.Name, Seed: *seed}
	db := corpus.DB
	for s := range db.Sources {
		fc.Sources = append(fc.Sources, fileSource{
			ID: s, Features: db.SourceFeatures(s), Trust: corpus.SourceTrust[s],
		})
	}
	for d := range db.Documents {
		fd := fileDoc{ID: d, Source: db.DocSource(d), Features: db.DocFeatures(d)}
		for _, q := range db.DocCliques(d) {
			fd.Refs = append(fd.Refs, fileRef{Claim: int(q.Claim), Stance: q.Stance.String()})
		}
		fc.Documents = append(fc.Documents, fd)
	}
	orderOf := make([]int, corpus.DB.NumClaims)
	for pos, c := range corpus.ClaimOrder {
		orderOf[c] = pos
	}
	for c := 0; c < corpus.DB.NumClaims; c++ {
		fc.Claims = append(fc.Claims, fileClaim{
			ID: c, Credible: corpus.Truth[c], Order: orderOf[c],
		})
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fc); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
