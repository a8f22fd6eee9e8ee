package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"image/png"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// generatedClass is the class of an unrendered placeholder division.
// A rendered page must contain none.
const generatedClass = "generated-content"

var imgSrcRe = regexp.MustCompile(`<img\b[^>]*?\ssrc="([^"]*)"`)

// imgSrcs lists the distinct <img src> values of an HTML document in
// document order.
func imgSrcs(doc []byte) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range imgSrcRe.FindAllSubmatch(doc, -1) {
		s := string(m[1])
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// sameSet reports whether a and b hold the same strings.
func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]string(nil), a...)
	y := append([]string(nil), b...)
	sort.Strings(x)
	sort.Strings(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// The page forms a reply can take, each with the <img> sources the
// spec says it must reference.

// promptSrcs: the prompt page shows only its stored assets.
func (p *pageSpec) promptSrcs() []string { return paths(p.shown) }

// generatedSrcs: a page rendered by generation (on the client, or by
// the server for a page without originals) shows one generated image
// per image or upscale placeholder.
func (p *pageSpec) generatedSrcs() []string {
	out := paths(p.shown)
	for _, im := range p.images {
		out = append(out, generatedPath(im.name))
	}
	for _, u := range p.upscales {
		out = append(out, generatedPath(u.name))
	}
	return out
}

// originalSrcs: a page rendered from stored originals shows the
// original of every image or upscale placeholder.
func (p *pageSpec) originalSrcs() []string {
	out := paths(p.shown)
	for _, im := range p.images {
		out = append(out, originalPath(im.name))
	}
	for _, u := range p.upscales {
		out = append(out, originalPath(u.name))
	}
	return out
}

// renderedSrcs is the traditional form the server sends an incapable
// client.
func (p *pageSpec) renderedSrcs() []string {
	if len(p.originals) > 0 {
		return p.originalSrcs()
	}
	return p.generatedSrcs()
}

func paths(as []assetSpec) []string {
	out := make([]string, 0, len(as))
	for _, a := range as {
		out = append(out, a.path)
	}
	return out
}

// checkPromptPage checks a capable client's reply: generative mode,
// every placeholder's prompt, bullets and source present verbatim,
// and exactly the spec's shown assets referenced.
func checkPromptPage(p *pageSpec, mode string, body []byte) error {
	if mode != "generative" {
		return fmt.Errorf("%s: capable reply has mode %q, want generative", p.path, mode)
	}
	var want []string
	for _, im := range p.images {
		want = append(want, im.prompt)
	}
	for _, t := range p.texts {
		want = append(want, t.bullets...)
	}
	for _, u := range p.upscales {
		want = append(want, u.src)
	}
	for _, w := range want {
		if !bytes.Contains(body, []byte(w)) {
			return fmt.Errorf("%s: prompt page lacks %q", p.path, w)
		}
	}
	if got := imgSrcs(body); !sameSet(got, p.promptSrcs()) {
		return fmt.Errorf("%s: prompt page references %v, want %v", p.path, got, p.promptSrcs())
	}
	return nil
}

// checkRendered checks a rendered page: the wanted mode, no placeholder
// division left, and exactly the wanted assets referenced.
func checkRendered(p *pageSpec, mode, wantMode string, doc []byte, want []string) error {
	if mode != wantMode {
		return fmt.Errorf("%s: rendered reply has mode %q, want %q", p.path, mode, wantMode)
	}
	if bytes.Contains(doc, []byte(generatedClass)) {
		return fmt.Errorf("%s: rendered page keeps a %s division", p.path, generatedClass)
	}
	if got := imgSrcs(doc); !sameSet(got, want) {
		return fmt.Errorf("%s: rendered page references %v, want %v", p.path, got, want)
	}
	return nil
}

// A checker holds what the checks remember across loads: the digest
// of every generated asset first seen, per rendering side, so a refetch
// that yields different bytes is caught.
type checker struct {
	seed maphash.Seed

	mu    sync.Mutex
	first map[genKey]uint64
}

type genKey struct {
	clientSide bool // generated by the client (true) or the server
	path       string
}

func newChecker() *checker {
	return &checker{seed: maphash.MakeSeed(), first: map[genKey]uint64{}}
}

// checkAsset checks one asset body fetched or generated for page p.
// Stored assets must equal the spec byte for byte. A generated asset
// must decode as a PNG of its declared size the first time it is seen
// and be byte-identical every time after, since generation is
// deterministic.
func (ck *checker) checkAsset(p *pageSpec, clientSide bool, path string, data []byte) error {
	if strings.HasPrefix(path, "/generated/") {
		size, ok := p.generatedSizes()[path]
		if !ok {
			return fmt.Errorf("%s: unexpected generated asset %s", p.path, path)
		}
		return ck.checkGenerated(genKey{clientSide, path}, size, data)
	}
	a, ok := p.asset(path)
	if !ok {
		return fmt.Errorf("%s: unexpected asset %s", p.path, path)
	}
	if !bytes.Equal(a.data, data) {
		return fmt.Errorf("%s: asset %s differs from the stored bytes (%d vs %d bytes)", p.path, path, len(data), len(a.data))
	}
	return nil
}

func (ck *checker) checkGenerated(k genKey, size pngSize, data []byte) error {
	sum := maphash.Bytes(ck.seed, data)
	ck.mu.Lock()
	prev, seen := ck.first[k]
	ck.mu.Unlock()
	if seen {
		if prev != sum {
			return fmt.Errorf("generated asset %s changed between fetches", k.path)
		}
		return nil
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("generated asset %s: %w", k.path, err)
	}
	if b := img.Bounds(); b.Dx() != size.w || b.Dy() != size.h {
		return fmt.Errorf("generated asset %s is %dx%d, declared %dx%d", k.path, b.Dx(), b.Dy(), size.w, size.h)
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if prev, seen := ck.first[k]; seen && prev != sum {
		return fmt.Errorf("generated asset %s changed between fetches", k.path)
	}
	ck.first[k] = sum
	return nil
}

// checkAssets checks that assets holds every wanted source with
// correct bytes.
func (ck *checker) checkAssets(p *pageSpec, clientSide bool, assets map[string][]byte, want []string) error {
	for _, src := range want {
		data, ok := assets[src]
		if !ok {
			return fmt.Errorf("%s: asset %s missing from the load", p.path, src)
		}
		if err := ck.checkAsset(p, clientSide, src, data); err != nil {
			return err
		}
	}
	return nil
}
