package main

import (
	"testing"

	"haswellep/internal/experiments"
)

func TestAnswerHashIgnoresWhitespace(t *testing.T) {
	a, err := answerHash([]byte(`{"kind":"latency","latency":{"ns":91.5,"lines":4096}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := answerHash([]byte("{ \"kind\": \"latency\",\n \"latency\": {\"ns\": 91.5, \"lines\": 4096} }\n"))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := answerHash([]byte(`{"kind":"latency","latency":{"ns":91.50000000000001,"lines":4096}}`))
	if a != b {
		t.Fatal("whitespace changed the answer hash")
	}
	if a == c {
		t.Fatal("a one-ulp change kept the answer hash")
	}
}

func TestTableDigestStable(t *testing.T) {
	m1 := map[string]string{"b": "2", "a": "1", "c": "3"}
	m2 := map[string]string{}
	for _, k := range []string{"c", "a", "b"} {
		m2[k] = m1[k]
	}
	if tableDigest(m1) != tableDigest(m2) {
		t.Fatal("insertion order changed the digest")
	}
	m2["a"] = "x"
	if tableDigest(m1) == tableDigest(m2) {
		t.Fatal("a changed entry kept the digest")
	}
	if servedDigest(map[string][]byte{"k": []byte(`{"a": 1}`)}) != servedDigest(map[string][]byte{"k": []byte(`{"a":1}`)}) {
		t.Fatal("served digest depends on whitespace")
	}
}

func TestSimHashCoversSimulatedFields(t *testing.T) {
	var p experiments.ChaosPoint
	p.Rate = 0.05
	p.Table4.Values[1][2] = 166.25
	a, err := simHash(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Table4.Values[1][2] = 166.5
	b, _ := simHash(p)
	p.Table4.Values[1][2] = 166.25
	p.Counters.Retries++
	c, _ := simHash(p)
	if a == b || a == c {
		t.Fatal("a simulated field change kept the point's hash")
	}
}
