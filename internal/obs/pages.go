package obs

import "strings"

// pageBits sets the unit of growth of the span, chain and event logs: a full
// page is never copied again, so recording n records allocates n records'
// worth of pages, not the geometric series a single growing slice re-copies.
const (
	pageBits = 10
	pageLen  = 1 << pageBits
)

// paged is an append-only log of fixed-size records held in pages.
type paged[T any] struct {
	pages [][]T
	n     int
}

// add appends v and returns the new length.
func (p *paged[T]) add(v T) int {
	if p.n&(pageLen-1) == 0 {
		p.pages = append(p.pages, make([]T, 0, pageLen))
	}
	last := &p.pages[len(p.pages)-1]
	*last = append(*last, v)
	p.n++
	return p.n
}

// at returns the i-th record.
func (p *paged[T]) at(i int) *T { return &p.pages[i>>pageBits][i&(pageLen-1)] }

// textPage is the size of one page of span notes or event messages.
const textPage = 16 << 10

// texts copies notes into fixed-size byte pages. A page is a builder grown
// once to textPage bytes and written only past its end, so it is never
// copied, and each note is a substring of its String(): a note costs its
// bytes and no allocation of its own. A note longer than a page gets one.
type texts struct{ page strings.Builder }

// join returns the concatenation of frags, copied into a page; frags do not
// escape.
func (x *texts) join(frags []string) string {
	n := 0
	for _, f := range frags {
		n += len(f)
	}
	b := &x.page
	switch {
	case n == 0:
		return ""
	case n > textPage:
		b = new(strings.Builder)
		b.Grow(n)
	case b.Cap()-b.Len() < n:
		*b = strings.Builder{}
		b.Grow(textPage)
	}
	at := b.Len()
	for _, f := range frags {
		b.WriteString(f)
	}
	return b.String()[at:]
}
