package main

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"strings"

	"sww/internal/core"
	"sww/internal/html"
)

// The benchmark writes its own page specs. The program is given pages
// built from them; every reply is checked against the spec, never
// against a value the program computed.

type imageSpec struct {
	name, prompt string
	w, h         int
}

type textSpec struct {
	name    string
	bullets []string
	words   int
}

// upscaleSpec is a §2.2 upscale placeholder: a low-resolution source
// of srcW×srcH pixels, scaled by scale on the client.
type upscaleSpec struct {
	name, src  string
	srcW, srcH int
	scale      int
}

type assetSpec struct {
	path, contentType string
	data              []byte
}

// pageSpec is one page as the benchmark defines it.
type pageSpec struct {
	path     string
	rev      int // revision, rendered into the page; bumped on republish
	images   []imageSpec
	texts    []textSpec
	upscales []upscaleSpec
	// shown are assets the page references with <img src>; sources
	// are upscale sources, referenced only from placeholder metadata.
	shown, sources []assetSpec
	// originals, when set, hold the pre-rendered media and prose of
	// every placeholder, so the page's traditional form needs no
	// generation.
	originals []assetSpec
}

// originalPath and generatedPath mirror the program's serving paths
// for placeholder media; spec names are already in the program's
// sanitized alphabet (lower-case letters, digits and '-').
func originalPath(name string) string  { return "/original/" + name }
func generatedPath(name string) string { return "/generated/" + name + ".png" }

// withOriginals gives p a stored original for every placeholder.
func (p *pageSpec) withOriginals() {
	for i, im := range p.images {
		p.originals = append(p.originals, assetSpec{originalPath(im.name), "image/jpeg", fillBytes(p.path+im.name, 2048+i*512)})
	}
	for _, u := range p.upscales {
		p.originals = append(p.originals, assetSpec{originalPath(u.name), "image/jpeg", fillBytes(p.path+u.name, 4096)})
	}
	for _, t := range p.texts {
		prose := strings.Repeat(strings.Join(t.bullets, ". ")+". ", 6)
		p.originals = append(p.originals, assetSpec{originalPath(t.name), "text/plain", []byte(prose)})
	}
}

// build returns the program's form of the page.
func (p *pageSpec) build() (*core.Page, error) {
	doc := html.Parse(fmt.Sprintf(`<!DOCTYPE html><html><head><title>%s</title></head><body><h1>%s</h1><p class="rev">revision %d</p><div class="content"></div></body></html>`,
		p.path, p.path, p.rev))
	content := doc.ByClass("content")[0]
	var gcs []core.GeneratedContent
	for _, im := range p.images {
		gcs = append(gcs, core.GeneratedContent{Type: core.ContentImage,
			Meta: core.Metadata{Name: im.name, Prompt: im.prompt, Width: im.w, Height: im.h}})
	}
	for _, t := range p.texts {
		gcs = append(gcs, core.GeneratedContent{Type: core.ContentText,
			Meta: core.Metadata{Name: t.name, Bullets: t.bullets, Words: t.words}})
	}
	for _, u := range p.upscales {
		gcs = append(gcs, core.GeneratedContent{Type: core.ContentUpscale,
			Meta: core.Metadata{Name: u.name, Src: u.src, Scale: u.scale}})
	}
	for _, gc := range gcs {
		div, err := gc.Div()
		if err != nil {
			return nil, fmt.Errorf("page %s: %w", p.path, err)
		}
		content.AppendChild(div)
	}
	for _, a := range p.shown {
		content.AppendChild(html.NewElement("img", html.Attribute{Name: "src", Value: a.path}))
	}
	page := &core.Page{Path: p.path, Doc: doc}
	for _, a := range append(append([]assetSpec(nil), p.shown...), p.sources...) {
		page.Unique = append(page.Unique, core.Asset{Path: a.path, ContentType: a.contentType, Data: a.data})
	}
	for _, a := range p.originals {
		page.Originals = append(page.Originals, core.Asset{Path: a.path, ContentType: a.contentType, Data: a.data})
	}
	return page, nil
}

// asset returns the spec's stored asset at path.
func (p *pageSpec) asset(path string) (assetSpec, bool) {
	for _, set := range [][]assetSpec{p.shown, p.sources, p.originals} {
		for _, a := range set {
			if a.path == path {
				return a, true
			}
		}
	}
	return assetSpec{}, false
}

// pngSize is the declared pixel size of a generated or upscaled asset.
type pngSize struct{ w, h int }

// generatedSizes maps each generated asset path of the page's
// client-rendered or server-rendered form to its declared size.
func (p *pageSpec) generatedSizes() map[string]pngSize {
	m := map[string]pngSize{}
	for _, im := range p.images {
		m[generatedPath(im.name)] = pngSize{im.w, im.h}
	}
	for _, u := range p.upscales {
		m[generatedPath(u.name)] = pngSize{u.srcW * u.scale, u.srcH * u.scale}
	}
	return m
}

// Words are drawn from a fixed vocabulary of lower-case letters, so
// every prompt appears verbatim in the rendered page.
var vocab = strings.Fields(`alpine meadow river canyon harbor lighthouse glacier desert
dune forest cedar lantern market bridge valley summit lagoon reef orchard vineyard
quarry terrace monastery pier tundra aurora basalt delta fjord geyser grotto heath`)

// phrase returns n vocabulary words chosen by a deterministic walk
// from key.
func phrase(key, n int) string {
	w := make([]string, n)
	x := uint64(key)*0x9e3779b97f4a7c15 + 1
	for i := range w {
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		w[i] = vocab[x%uint64(len(vocab))]
	}
	return strings.Join(w, " ")
}

// fillBytes returns n deterministic bytes derived from key.
func fillBytes(key string, n int) []byte {
	x := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		x = (x ^ uint64(key[i])) * 1099511628211
	}
	b := make([]byte, n)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// patternPNG encodes a deterministic w×h gradient keyed by key; upscale
// sources must be real, decodable images.
func patternPNG(key, w, h int) []byte {
	img := image.NewNRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetNRGBA(x, y, color.NRGBA{uint8(x*4 + key), uint8(y*4 + 3*key), uint8((x + y + key) * 2), 255})
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		panic(err) // encoding an in-memory NRGBA cannot fail
	}
	return buf.Bytes()
}

// warmPage is a warm-serve page: one image and one text placeholder
// and one shown asset.
func warmPage(i int) *pageSpec {
	return &pageSpec{
		path:   fmt.Sprintf("/warm/page-%03d", i),
		images: []imageSpec{{fmt.Sprintf("warm-%03d-img", i), phrase(i, 8), 96, 96}},
		texts: []textSpec{{fmt.Sprintf("warm-%03d-txt", i),
			[]string{phrase(1000+i, 7), phrase(2000+i, 6)}, 50}},
		shown: []assetSpec{{fmt.Sprintf("/warm/asset-%03d.bin", i), "application/octet-stream",
			fillBytes(fmt.Sprint("warm", i), 1536)}},
	}
}

// coldUpscaleEvery makes every n-th cold-generate page an upscale
// gallery.
const coldUpscaleEvery = 8

// coldPage is a cold-generate page. Most carry an image and a text
// placeholder with prompts unique to the page; every coldUpscaleEvery-th
// is a gallery of two upscale placeholders with stored originals, so
// an incapable client gets the originals and a capable one upscales.
func coldPage(i int) *pageSpec {
	p := &pageSpec{path: fmt.Sprintf("/cold/page-%03d", i)}
	if i%coldUpscaleEvery == coldUpscaleEvery-1 {
		for k := 0; k < 2; k++ {
			name := fmt.Sprintf("cold-%03d-photo-%d", i, k)
			src := assetSpec{fmt.Sprintf("/cold/lowres-%03d-%d.png", i, k), "image/png", patternPNG(i*2+k, 32, 32)}
			p.sources = append(p.sources, src)
			p.upscales = append(p.upscales, upscaleSpec{name, src.path, 32, 32, 2})
		}
		p.withOriginals()
		return p
	}
	p.images = []imageSpec{{fmt.Sprintf("cold-%03d-img", i), phrase(5000+i, 9), 64, 64}}
	p.texts = []textSpec{{fmt.Sprintf("cold-%03d-txt", i),
		[]string{phrase(6000+i, 7), phrase(7000+i, 6)}, 50}}
	p.shown = []assetSpec{{fmt.Sprintf("/cold/asset-%03d.bin", i), "application/octet-stream",
		fillBytes(fmt.Sprint("cold", i), 1024)}}
	return p
}

// edgePage is an edge-relay page: placeholders plus stored originals,
// so the origin answers both abilities without generating.
func edgePage(i int) *pageSpec {
	p := &pageSpec{
		path:   fmt.Sprintf("/edge/page-%03d", i),
		images: []imageSpec{{fmt.Sprintf("edge-%03d-img", i), phrase(9000+i, 8), 96, 96}},
		texts: []textSpec{{fmt.Sprintf("edge-%03d-txt", i),
			[]string{phrase(10000+i, 7), phrase(11000+i, 6)}, 50}},
		shown: []assetSpec{{fmt.Sprintf("/edge/asset-%03d.bin", i), "application/octet-stream",
			fillBytes(fmt.Sprint("edge", i), 1536)}},
	}
	p.withOriginals()
	return p
}
