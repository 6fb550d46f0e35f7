package main

import (
	"math"
	"math/rand"
	"strings"
)

// corpusSpec shapes a synthetic corpus after one of the paper's two
// datasets. The generator is the benchmark's own, so the program under
// test never produces its inputs.
type corpusSpec struct {
	name        string
	objects     int
	vocab       int
	uniqueWords int // mean distinct words per document
	syllables   int // minimum syllables per word; sets document length
}

// restaurants has short documents. At 23,000 objects the IR²-Tree with
// 64-byte leaf signatures takes about 1,020 blocks.
var restaurants = corpusSpec{name: "restaurants", objects: 23000, vocab: 3700, uniqueWords: 14, syllables: 3}

// restaurantsLarge doubles restaurants: about 2,060 index blocks,
// twice the node cache counted in blocks.
var restaurantsLarge = corpusSpec{name: "restaurants", objects: 46000, vocab: 7400, uniqueWords: 14, syllables: 3}

// hotels has long documents: about 4.5 KB of text, two 4 KB blocks per
// object. Split over two shards its index fits both node caches.
var hotels = corpusSpec{name: "hotels", objects: 3000, vocab: 8000, uniqueWords: 349, syllables: 6}

const (
	worldSize    = 10000.0
	zipfSkew     = 1.07
	clusters     = 32
	clusterSigma = 150.0
	uniformShare = 0.1
)

// doc is one generated object.
type doc struct {
	x, y float64
	text string
}

// word spells vocabulary index id as consonant+vowel syllables. The
// consonants are the base-20 digits of id, padded to at least n
// syllables, so distinct ids give distinct words.
func word(id, n int) string {
	const cons = "bcdfghjklmnpqrstvwxz"
	const vows = "aeiou"
	var b strings.Builder
	for i, v := 0, id; v > 0 || i < n; i, v = i+1, v/20 {
		b.WriteByte(cons[v%20])
		b.WriteByte(vows[(id+i)%5])
	}
	return b.String()
}

// generator draws documents: Zipf-distributed words and points from
// Gaussian clusters plus a uniform background.
type generator struct {
	spec    corpusSpec
	rng     *rand.Rand
	zipf    *rand.Zipf
	centers [][2]float64
	words   []string
	b       strings.Builder
}

func newGenerator(spec corpusSpec, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{spec: spec, rng: rng, zipf: rand.NewZipf(rng, zipfSkew, 1, uint64(spec.vocab-1))}
	g.centers = make([][2]float64, clusters)
	for i := range g.centers {
		g.centers[i] = [2]float64{rng.Float64() * worldSize, rng.Float64() * worldSize}
	}
	g.words = make([]string, spec.vocab)
	for i := range g.words {
		g.words[i] = word(i, spec.syllables)
	}
	return g
}

// corpus draws the spec's base corpus.
func (g *generator) corpus() []doc {
	docs := make([]doc, g.spec.objects)
	for i := range docs {
		docs[i] = g.next()
	}
	return docs
}

func (g *generator) next() doc {
	rng := g.rng
	var x, y float64
	if rng.Float64() < uniformShare {
		x, y = rng.Float64()*worldSize, rng.Float64()*worldSize
	} else {
		c := g.centers[rng.Intn(clusters)]
		x, y = c[0]+rng.NormFloat64()*clusterSigma, c[1]+rng.NormFloat64()*clusterSigma
	}
	vocab := g.spec.vocab
	n := int(math.Round(float64(g.spec.uniqueWords) * (1 + 0.25*rng.NormFloat64())))
	n = min(max(n, 1), vocab/2)
	seen := make(map[int]bool, n)
	order := make([]int, 0, n)
	for tries := 0; len(order) < n && tries < 8*n; tries++ {
		if w := int(g.zipf.Uint64()); !seen[w] {
			seen[w] = true
			order = append(order, w)
		}
	}
	for w := rng.Intn(vocab); len(order) < n; w = (w + 1) % vocab {
		if !seen[w] {
			seen[w] = true
			order = append(order, w)
		}
	}
	// Common words (the early Zipf draws) sometimes repeat, so term
	// frequencies above one occur as in natural text.
	b := &g.b
	b.Reset()
	for j, w := range order {
		tf := 1
		if j < len(order)/4 && rng.Float64() < 0.4 {
			tf += 1 + rng.Intn(2)
		}
		for ; tf > 0; tf-- {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(g.words[w])
		}
	}
	return doc{x: x, y: y, text: b.String()}
}
