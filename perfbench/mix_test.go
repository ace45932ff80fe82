package main

import (
	"bytes"
	"reflect"
	"testing"
)

// mixBytes flattens a mix into the exact bytes its requests carry.
func mixBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	mix, err := newServeMix(seed, 200)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, list := range [][]serveRequest{mix.Stored, mix.Reqs} {
		for _, q := range list {
			b.WriteString(q.Class)
			b.WriteByte(' ')
			b.Write(q.Body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	if !bytes.Equal(mixBytes(t, 7), mixBytes(t, 7)) {
		t.Error("the same seed drew different serve request mixes")
	}
	if bytes.Equal(mixBytes(t, 7), mixBytes(t, 8)) {
		t.Error("different seeds drew the same serve request mix")
	}
	rounds := func(seed int64) [][]int {
		next := kernelOrders(seed, 18)
		return [][]int{next(), next(), next()}
	}
	if !reflect.DeepEqual(rounds(7), rounds(7)) {
		t.Error("the same seed gave different kernel orders")
	}
	if reflect.DeepEqual(rounds(7), rounds(8)) {
		t.Error("different seeds gave the same kernel orders")
	}
}

func TestServeMixShape(t *testing.T) {
	mix, err := newServeMix(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, q := range mix.Stored {
		seen[string(q.Body)] = true
	}
	stored := 0
	for i, q := range mix.Reqs {
		if want := []string{classStored, classNew}[i/phaseLen%2]; q.Class != want {
			t.Fatalf("request %d is %s, want %s: the mix alternates phases of %d", i, q.Class, want, phaseLen)
		}
		switch q.Class {
		case classStored:
			stored++
			if !seen[string(q.Body)] {
				t.Fatalf("stored request names a point set-up does not store: %s", q.Body)
			}
		case classNew:
			if seen[string(q.Body)] {
				t.Fatalf("new request repeats a point: %s", q.Body)
			}
			seen[string(q.Body)] = true
		}
	}
	if stored != 200 {
		t.Errorf("%d of 400 requests are stored, want half", stored)
	}
}
