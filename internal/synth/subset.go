package synth

import (
	"fmt"

	"factcheck/internal/factdb"
)

// Subset materialises the sub-corpus over the given claims — the
// streaming experiments of §8.8 replay a corpus in posting order and
// periodically run the validation process on the prefix that has arrived
// so far. Documents referencing dropped claims are dropped, sources with
// no remaining documents are dropped, and all ids are re-indexed densely.
// The returned slice maps new claim ids back to original ids.
func Subset(c *Corpus, claims []int) (*Corpus, []int) {
	keep := make(map[int]int, len(claims)) // original -> new
	toOrig := make([]int, 0, len(claims))
	for _, cl := range claims {
		if _, ok := keep[cl]; ok {
			continue
		}
		keep[cl] = len(toOrig)
		toOrig = append(toOrig, cl)
	}

	db := &factdb.DB{NumClaims: len(toOrig)}
	srcMap := make(map[int]int)
	var refs []factdb.ClaimRef
	rows := c.DB.Rows()
	for d := range c.DB.Documents {
		refs = refs[:0]
		for _, q := range rows.DocCliques(d) {
			if newID, ok := keep[int(q.Claim)]; ok {
				refs = append(refs, factdb.ClaimRef{Claim: newID, Stance: q.Stance})
			}
		}
		if len(refs) == 0 {
			continue
		}
		src := rows.DocSource(d)
		newSrc, ok := srcMap[src]
		if !ok {
			newSrc = db.AddSource(rows.SourceFeatures(src))
			srcMap[src] = newSrc
		}
		db.AddDocument(newSrc, rows.DocFeatures(d), refs...)
	}
	if err := db.Finalize(); err != nil {
		panic(fmt.Sprintf("synth: invalid subset: %v", err))
	}

	truth := make([]bool, len(toOrig))
	for newID, orig := range toOrig {
		truth[newID] = c.Truth[orig]
	}
	srcTrust := make([]float64, len(db.Sources))
	//lint:allow detrand inverse permutation: srcMap is a bijection, every newSrc written exactly once, so the result is iteration-order independent
	for orig, newSrc := range srcMap {
		srcTrust[newSrc] = c.SourceTrust[orig]
	}
	var order []int
	for _, orig := range c.ClaimOrder {
		if newID, ok := keep[orig]; ok {
			order = append(order, newID)
		}
	}
	sub := &Corpus{
		Profile:     c.Profile,
		DB:          db,
		Truth:       truth,
		SourceTrust: srcTrust,
		ClaimOrder:  order,
	}
	return sub, toOrig
}
