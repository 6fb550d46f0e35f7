package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// client sends one workload's requests to a server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// answer is a decoded response.
type answer struct {
	results []result // search, ranked, TOP, RANKED
	count   int      // COUNT
	object  result   // get: the object in result.Object
	id      uint64   // add
}

// request builds the HTTP request of o; target is the id a delete removes.
func (c *client) request(o *op, target uint64) (*http.Request, error) {
	switch o.kind {
	case kSearch, kRanked:
		v := url.Values{}
		v.Set("lat", num(o.x))
		v.Set("lon", num(o.y))
		v.Set("k", strconv.Itoa(o.k))
		v.Set("q", strings.Join(o.words, ","))
		return http.NewRequest(http.MethodGet, c.base+"/"+o.kind.String()+"?"+v.Encode(), nil)
	case kGet:
		return http.NewRequest(http.MethodGet, c.base+"/objects/"+strconv.FormatUint(o.id, 10), nil)
	case kQuery:
		body, err := json.Marshal(map[string]string{"query": o.q.String()})
		if err != nil {
			return nil, err
		}
		return http.NewRequest(http.MethodPost, c.base+"/query", bytes.NewReader(body))
	case kAdd:
		body, err := json.Marshal(map[string]any{"point": []float64{o.doc.x, o.doc.y}, "text": o.doc.text})
		if err != nil {
			return nil, err
		}
		return http.NewRequest(http.MethodPost, c.base+"/objects", bytes.NewReader(body))
	case kDelete:
		return http.NewRequest(http.MethodDelete, c.base+"/objects/"+strconv.FormatUint(target, 10), nil)
	}
	return nil, fmt.Errorf("unknown request kind %d", o.kind)
}

// call sends o and returns the response body and the client-observed
// latency: from sending the request to reading the whole response.
// An error means the operation failed.
func (c *client) call(o *op, target uint64) ([]byte, time.Duration, error) {
	req, err := c.request(o, target)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, lat, fmt.Errorf("%s: HTTP %d: %s", o.kind, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, lat, nil
}

// decode parses the response body of o.
func decode(o *op, body []byte) (answer, error) {
	var a answer
	var err error
	switch o.kind {
	case kSearch, kRanked:
		var v struct{ Results []result }
		err = json.Unmarshal(body, &v)
		a.results = v.Results
	case kQuery:
		var v struct {
			Results []result
			Ranked  []result
			Count   int
		}
		err = json.Unmarshal(body, &v)
		a.results, a.count = v.Results, v.Count
		if o.q.proj == "RANKED" {
			a.results = v.Ranked
		}
	case kGet:
		err = json.Unmarshal(body, &a.object.Object)
	case kAdd:
		var v struct{ ID uint64 }
		err = json.Unmarshal(body, &v)
		a.id = v.ID
	}
	if err != nil {
		return a, fmt.Errorf("%s: decode response: %w", o.kind, err)
	}
	return a, nil
}
