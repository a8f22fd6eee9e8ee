package main

import (
	"bytes"
	"image"
	"image/png"
	"strings"
	"testing"
	"time"
)

// mustPNG encodes a w×h image of one grey shade.
func mustPNG(t *testing.T, w, h int, shade uint8) []byte {
	t.Helper()
	img := image.NewGray(image.Rect(0, 0, w, h))
	for i := range img.Pix {
		img.Pix[i] = shade
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPromptPageCheckRejectsCorruption(t *testing.T) {
	p := warmPage(3)
	page, err := p.build()
	if err != nil {
		t.Fatal(err)
	}
	good := page.PromptBytes()
	if err := checkPromptPage(p, "generative", good); err != nil {
		t.Fatalf("a correct prompt page fails: %v", err)
	}
	prompt := p.images[0].prompt
	for name, c := range map[string]struct {
		mode string
		body []byte
	}{
		"traditional mode": {"traditional", good},
		"prompt missing":   {"generative", bytes.Replace(good, []byte(prompt), []byte("a different prompt"), 1)},
		"bullet missing":   {"generative", bytes.Replace(good, []byte(p.texts[0].bullets[1]), nil, 1)},
		"extra asset":      {"generative", bytes.Replace(good, []byte("</body>"), []byte(`<img src="/elsewhere.png"></body>`), 1)},
		"asset missing":    {"generative", bytes.Replace(good, []byte(`src="`+p.shown[0].path+`"`), nil, 1)},
	} {
		if err := checkPromptPage(p, c.mode, c.body); err == nil {
			t.Errorf("%s: corrupted prompt page passes", name)
		}
	}
}

func TestRenderedCheckRejectsCorruption(t *testing.T) {
	p := warmPage(5)
	want := p.renderedSrcs()
	var imgs strings.Builder
	for _, src := range want {
		imgs.WriteString(`<img src="` + src + `" alt="x">`)
	}
	good := []byte("<html><body><p>expanded text</p>" + imgs.String() + "</body></html>")
	if err := checkRendered(p, "traditional", "traditional", good, want); err != nil {
		t.Fatalf("a correct rendered page fails: %v", err)
	}
	for name, c := range map[string]struct {
		mode string
		doc  []byte
	}{
		"generative mode":  {"generative", good},
		"placeholder left": {"traditional", bytes.Replace(good, []byte("<p>"), []byte(`<div class="generated-content"></div><p>`), 1)},
		"image missing":    {"traditional", bytes.Replace(good, []byte(`<img src="`+want[0]+`" alt="x">`), nil, 1)},
	} {
		if err := checkRendered(p, c.mode, "traditional", c.doc, want); err == nil {
			t.Errorf("%s: corrupted rendered page passes", name)
		}
	}
}

func TestAssetCheckRejectsCorruption(t *testing.T) {
	p := coldPage(0) // one 64x64 image placeholder and one shown asset
	gen := generatedPath(p.images[0].name)
	stored := p.shown[0]
	good := mustPNG(t, p.images[0].w, p.images[0].h, 0)

	ck := newChecker()
	if err := ck.checkAsset(p, true, gen, good); err != nil {
		t.Fatalf("a correct generated image fails: %v", err)
	}
	if err := ck.checkAsset(p, true, gen, good); err != nil {
		t.Fatalf("refetching identical bytes fails: %v", err)
	}
	if err := ck.checkAsset(p, false, stored.path, stored.data); err != nil {
		t.Fatalf("a correct stored asset fails: %v", err)
	}

	flipped := append([]byte(nil), stored.data...)
	flipped[len(flipped)/2] ^= 0xff
	for name, c := range map[string]struct {
		clientSide bool
		path       string
		data       []byte
	}{
		"different bytes on refetch": {true, gen, mustPNG(t, p.images[0].w, p.images[0].h, 200)},
		"wrong size":                 {false, gen, mustPNG(t, 32, 32, 0)},
		"not a png":                  {false, gen, []byte("not a png")},
		"stored asset altered":       {false, stored.path, flipped},
		"unknown asset":              {false, "/warm/nothing.bin", stored.data},
		"unknown generated asset":    {false, "/generated/nothing.png", good},
	} {
		if err := ck.checkAsset(p, c.clientSide, c.path, c.data); err == nil {
			t.Errorf("%s: corrupted asset passes", name)
		}
	}
}

func TestEdgeCheckRejectsCorruption(t *testing.T) {
	t0 := time.Now()
	e := &edgeTier{
		versions: map[string][]version{"/p": {
			{body: [2][]byte{[]byte("rev0 capable"), []byte("rev0 rendered")}},
			{published: t0, body: [2][]byte{[]byte("rev1 capable"), []byte("rev1 rendered")}},
		}},
		assets: map[string][]byte{"/a": []byte("asset")},
	}
	for name, c := range map[string]struct {
		form int
		sent time.Time
		body string
	}{
		"newest revision":         {capableForm, t0.Add(time.Hour), "rev1 capable"},
		"old revision, in time":   {incapableForm, t0.Add(staleAllowance / 2), "rev0 rendered"},
		"old revision, before it": {capableForm, t0.Add(-time.Second), "rev0 capable"},
	} {
		if err := e.checkPage("/p", c.form, c.sent, []byte(c.body)); err != nil {
			t.Errorf("%s: a correct edge reply fails: %v", name, err)
		}
	}
	for name, c := range map[string]struct {
		form int
		sent time.Time
		body string
	}{
		"stale past the allowance": {capableForm, t0.Add(staleAllowance + time.Millisecond), "rev0 capable"},
		"other ability's bytes":    {capableForm, t0, "rev1 rendered"},
		"altered body":             {capableForm, t0, "rev1 capablE"},
	} {
		if err := e.checkPage("/p", c.form, c.sent, []byte(c.body)); err == nil {
			t.Errorf("%s: corrupted edge reply passes", name)
		}
	}
	if err := e.checkAsset("/a", []byte("asset")); err != nil {
		t.Errorf("a correct edge asset fails: %v", err)
	}
	if err := e.checkAsset("/a", []byte("assex")); err == nil {
		t.Error("an altered edge asset passes")
	}
}
