package factdb

import "fmt"

// ExampleDB builds a fact database by hand: two sources, three documents,
// two claims — one of them disputed.
func ExampleDB() {
	db := &DB{NumClaims: 2}
	blog := db.AddSource([]float64{0.9}) // source features, e.g. centrality
	forum := db.AddSource([]float64{0.1})
	db.AddDocument(blog, []float64{0.5, 1}, ClaimRef{Claim: 0, Stance: Support})
	db.AddDocument(blog, []float64{0.2, 0}, ClaimRef{Claim: 1, Stance: Refute})
	db.AddDocument(forum, []float64{0.8, 1}, ClaimRef{Claim: 1, Stance: Support})
	if err := db.Finalize(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(db.Stats())
	// Output: 2 sources, 3 documents, 2 claims, 3 cliques, 1 components
}
