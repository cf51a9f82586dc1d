// Package core implements STAIR codes (Li & Lee, FAST 2014): a general
// family of erasure codes that tolerate m whole-device failures plus a
// configurable pattern of sector failures, described by a vector
// e = (e0 ≤ e1 ≤ … ≤ e_{m'-1}), within a single stripe of n chunks of r
// sectors each.
//
// The implementation follows the paper's construction exactly:
//
//   - two systematic MDS codes, Crow = (n+m', n−m) over stripe rows and
//     Ccol = (r+e_max, r) over chunks (§3);
//   - the canonical stripe with virtual parity symbols, whose augmented
//     rows are Crow codewords (the homomorphic property, §4.1/App. A);
//   - upstairs decoding (§4.2), generalised here as a peeling scheduler
//     that also yields the practical decoding order of §4.3;
//   - upstairs and downstairs encoding with inside global parity symbols
//     (§5.1), plus standard encoding, with Mult_XOR cost models (§5.3)
//     and automatic selection of the cheapest method;
//   - uneven parity relations (§5.2) for update-penalty analysis (§6.3).
//
// All heavy work is pre-compiled at construction time into schedules of
// region Mult_XOR operations; Encode and Repair then replay schedules
// over sector payloads.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"stair/internal/gf"
)

// Placement selects where the s global parity symbols live.
type Placement int

const (
	// Inside stores global parity symbols inside the stripe, replacing
	// the bottom data sectors of the m' rightmost data chunks in the
	// stair layout of §5.1 (the paper's recommended, regular layout).
	Inside Placement = iota
	// Outside keeps the s global parity symbols outside the stripe
	// (the baseline construction of §3); they are assumed always
	// available during decoding.
	Outside
)

func (p Placement) String() string {
	switch p {
	case Inside:
		return "inside"
	case Outside:
		return "outside"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Config describes a STAIR code instance. N, R, M and E correspond to the
// paper's n, r, m and e (Table 1).
type Config struct {
	// N is the number of chunks per stripe (devices per array). Must
	// satisfy N > M.
	N int
	// R is the number of sectors (symbols) per chunk.
	R int
	// M is the maximum number of entirely failed chunks tolerated.
	M int
	// E is the sector-failure coverage vector: sector failures may
	// appear in at most len(E) chunks beyond the M failed ones, and the
	// i-th most-affected such chunk may lose at most E[i] sectors (after
	// ascending sort). Each element must lie in [1, R]; len(E) ≤ N−M.
	// E may be empty, in which case the code degenerates to a
	// Reed-Solomon code with M parity chunks.
	E []int
	// W selects the Galois field GF(2^W). Zero picks the smallest
	// supported field that fits the geometry (w=8 when N+m' ≤ 256 and
	// R+e_max ≤ 256, else w=16).
	W int
	// Placement selects inside (default) or outside global parities.
	Placement Placement
}

// normalized returns a validated copy of the config with E sorted
// ascending and W resolved, together with the derived parameters.
func (cfg Config) normalized() (Config, error) {
	c := cfg
	if c.N < 1 {
		return c, fmt.Errorf("core: N=%d must be ≥ 1", c.N)
	}
	if c.R < 1 {
		return c, fmt.Errorf("core: R=%d must be ≥ 1", c.R)
	}
	if c.M < 0 {
		return c, fmt.Errorf("core: M=%d must be ≥ 0", c.M)
	}
	if c.M >= c.N {
		return c, fmt.Errorf("core: M=%d must be < N=%d", c.M, c.N)
	}
	e := append([]int{}, c.E...)
	sort.Ints(e)
	c.E = e
	mPrime := len(e)
	if mPrime > c.N-c.M {
		return c, fmt.Errorf("core: len(E)=%d must be ≤ N−M=%d", mPrime, c.N-c.M)
	}
	for _, v := range e {
		if v < 1 || v > c.R {
			return c, fmt.Errorf("core: every element of E must lie in [1, R=%d]; got %d", c.R, v)
		}
	}
	eMax := 0
	if mPrime > 0 {
		eMax = e[mPrime-1]
	}
	switch c.W {
	case 0:
		if c.N+mPrime <= 256 && c.R+eMax <= 256 {
			c.W = 8
		} else {
			c.W = 16
		}
	case 4, 8, 16:
		// validated below against geometry
	default:
		return c, fmt.Errorf("core: unsupported W=%d (want 0, 4, 8 or 16)", c.W)
	}
	if c.N+mPrime > 1<<c.W || c.R+eMax > 1<<c.W {
		return c, fmt.Errorf("core: geometry (N+m'=%d, R+e_max=%d) does not fit GF(2^%d)",
			c.N+mPrime, c.R+eMax, c.W)
	}
	switch c.Placement {
	case Inside, Outside:
	default:
		return c, fmt.Errorf("core: unknown placement %v", c.Placement)
	}
	if c.Placement == Inside {
		// The stair must fit in the data chunks; len(E) ≤ N−M already
		// guarantees one data chunk per partial chunk, and E[l] ≤ R
		// guarantees the column depth.
		if mPrime > 0 && c.N-c.M-mPrime < 0 {
			return c, fmt.Errorf("core: inside placement needs len(E)=%d ≤ N−M=%d", mPrime, c.N-c.M)
		}
	}
	return c, nil
}

// MPrime returns m' = len(E) for a validated config.
func (cfg Config) MPrime() int { return len(cfg.E) }

// S returns s = Σ E[i].
func (cfg Config) S() int {
	s := 0
	for _, v := range cfg.E {
		s += v
	}
	return s
}

// EMax returns the largest element of E, or 0 when E is empty.
func (cfg Config) EMax() int {
	if len(cfg.E) == 0 {
		return 0
	}
	m := cfg.E[0]
	for _, v := range cfg.E[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// String renders the configuration compactly, e.g.
// "STAIR(n=8,r=4,m=2,e=[1 1 2],w=8,inside)".
func (cfg Config) String() string {
	return fmt.Sprintf("STAIR(n=%d,r=%d,m=%d,e=%v,w=%d,%v)",
		cfg.N, cfg.R, cfg.M, cfg.E, cfg.W, cfg.Placement)
}

// field returns the shared field for the resolved word size.
func (cfg Config) field() *gf.Field { return gf.Get(cfg.W) }

// ParseE parses a coverage vector written as a comma-separated list, the
// form every command-line tool takes it in ("1,1,2"; spaces around an
// element are ignored). The empty string is the empty vector — the
// Reed-Solomon degeneration — and yields nil. Range checks are New's job.
func ParseE(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	e := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("core: bad element %q in e vector %q", p, s)
		}
		e[i] = v
	}
	return e, nil
}
