package flatez

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// oracleLZ77 is the reference for lz77: the matcher as first written,
// which compares a byte at a time and walks every chain candidate up to
// maxChain.
func oracleLZ77(data, dict []byte, p matcherParams) []token {
	buf := make([]byte, 0, len(dict)+len(data))
	buf = append(buf, dict...)
	buf = append(buf, data...)
	start := len(dict)

	head := make([]int32, hashSize)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(buf))
	insert := func(pos int) {
		if pos+minMatch > len(buf) {
			return
		}
		h := hash3(buf[pos:])
		prev[pos] = head[h]
		head[h] = int32(pos)
	}
	// Seed the dictionary into the hash chains.
	for i := 0; i < start; i++ {
		insert(i)
	}

	matchLen := func(a, b int) int {
		max := len(buf) - b
		if max > maxMatch {
			max = maxMatch
		}
		n := 0
		for n < max && buf[a+n] == buf[b+n] {
			n++
		}
		return n
	}
	// findFrom walks a hash chain looking for the best match for pos.
	findFrom := func(cand int32, pos int) (length, dist int) {
		limit := pos - windowSize
		chain := p.maxChain
		for cand >= 0 && int(cand) > limit && chain > 0 {
			if l := matchLen(int(cand), pos); l > length {
				length = l
				dist = pos - int(cand)
				if l >= p.nice {
					break
				}
			}
			cand = prev[cand]
			chain--
		}
		return length, dist
	}
	find := func(pos int) (int, int) {
		if pos+minMatch > len(buf) {
			return 0, 0
		}
		h := hash3(buf[pos:])
		return findFrom(head[h], pos)
	}

	tokens := make([]token, 0, len(data)/3+16)
	i := start
	for i < len(buf) {
		insert(i)
		var l1, d1 int
		if i+minMatch <= len(buf) {
			l1, d1 = findFrom(prev[i], i)
		}
		if l1 >= minMatch && p.lazy && i+1+minMatch <= len(buf) {
			if l2, _ := find(i + 1); l2 > l1 {
				tokens = append(tokens, token{lit: buf[i]})
				i++
				continue
			}
		}
		if l1 >= minMatch {
			tokens = append(tokens, token{length: l1, dist: d1})
			for j := i + 1; j < i+l1; j++ {
				insert(j)
			}
			i += l1
		} else {
			tokens = append(tokens, token{lit: buf[i]})
			i++
		}
	}
	return tokens
}

// The word-at-a-time compare, the skipped candidates and the early stop
// change no token: at every level, with and without a dictionary, the
// tokens are the reference matcher's, so every deflate coding (the
// site's, the png and tagcase experiments') stays byte-identical.
func TestLZ77MatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	noisy := make([]byte, 40_000)
	for i := range noisy {
		switch {
		case i > 300 && r.Intn(3) > 0:
			// Copy from a random earlier place: long, overlapping matches.
			noisy[i] = noisy[i-1-r.Intn(300)]
		default:
			noisy[i] = byte('a' + r.Intn(4))
		}
	}
	inputs := [][]byte{noisy, bytes.Repeat([]byte{0}, 70_000), bytes.Repeat([]byte("abcdefgh"), 5000)}
	for _, name := range []string{"empty", "single", "short", "runs", "alternate", "html", "incompressible"} {
		inputs = append(inputs, testCorpora[name])
	}
	for _, level := range []int{1, 3, 6, 9} {
		p := levelParams(level)
		for i, data := range inputs {
			for _, dict := range [][]byte{nil, noisy[:5000], testCorpora["html"][:3000]} {
				got, want := lz77(data, dict, p), oracleLZ77(data, dict, p)
				if !slices.Equal(got, want) {
					t.Fatalf("level %d, input %d (%d bytes), dict %d bytes: %d tokens, the oracle %d",
						level, i, len(data), len(dict), len(got), len(want))
				}
			}
		}
	}
}
