package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"roughsim/internal/resilience"
)

// ErrStale reports a renew or complete the coordinator rejected because
// the lease is no longer current (expired and re-queued, canceled, or
// finished by someone else). The worker discards the work — the
// coordinator's re-queued execution is authoritative.
var ErrStale = errors.New("cluster: stale lease")

// NewHTTPClient returns the explicit-timeout client all intra-cluster
// HTTP goes through. http.DefaultClient has no timeout at all, so one
// hung peer would pin a goroutine forever; every call here is bounded.
func NewHTTPClient(timeout time.Duration) *http.Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &http.Client{Timeout: timeout}
}

// Client talks to one coordinator. Transient transport failures and
// 5xx responses retry under the resilience backoff (deterministic
// jitter keyed by the worker), so a coordinator restart or a dropped
// connection does not lose a computed column.
type Client struct {
	base     string
	hc       *http.Client
	backoff  resilience.Backoff
	attempts int
	key      uint64
}

// NewClient builds a coordinator client with per-request timeout and a
// bounded retry schedule keyed by name (the worker ID).
func NewClient(base string, timeout time.Duration, name string) *Client {
	return &Client{
		base:     strings.TrimRight(base, "/"),
		hc:       NewHTTPClient(timeout),
		backoff:  resilience.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.2},
		attempts: 4,
		key:      resilience.StringHash(name),
	}
}

// Claim asks for one task. A nil task (with nil error) means nothing is
// pending right now.
func (c *Client) Claim(ctx context.Context, worker string) (*Task, string, time.Duration, error) {
	status, body, err := c.postJSON(ctx, ClaimPath, ClaimRequest{Worker: worker})
	if err != nil {
		return nil, "", 0, err
	}
	if status == http.StatusNoContent {
		return nil, "", 0, nil
	}
	if status != http.StatusOK {
		return nil, "", 0, fmt.Errorf("cluster: claim: unexpected status %d: %s", status, body)
	}
	var resp ClaimResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, "", 0, fmt.Errorf("cluster: claim: decode: %w", err)
	}
	return &resp.Task, resp.Token, time.Duration(resp.TTLMs) * time.Millisecond, nil
}

// Renew extends the lease; ErrStale when the coordinator no longer
// honors it (abandon the solve — its result would be discarded anyway).
func (c *Client) Renew(ctx context.Context, taskID, token string) error {
	return c.expectAck(ctx, RenewPath, RenewRequest{TaskID: taskID, Token: token}, "renew")
}

// Complete reports a finished task; ErrStale when the lease lapsed
// first (the column is discarded idempotently on the coordinator).
func (c *Client) Complete(ctx context.Context, req CompleteRequest) error {
	return c.expectAck(ctx, CompletePath, req, "complete")
}

// Leave announces a graceful departure.
func (c *Client) Leave(ctx context.Context, worker string) error {
	return c.expectAck(ctx, LeavePath, LeaveRequest{Worker: worker}, "leave")
}

func (c *Client) expectAck(ctx context.Context, path string, req any, op string) error {
	status, body, err := c.postJSON(ctx, path, req)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusNoContent, http.StatusOK:
		return nil
	case http.StatusConflict:
		return ErrStale
	default:
		return fmt.Errorf("cluster: %s: unexpected status %d: %s", op, status, body)
	}
}

// postJSON POSTs a JSON body, retrying transport errors and 5xx
// responses under the backoff. Definitive responses (2xx, 4xx) return
// immediately.
func (c *Client) postJSON(ctx context.Context, path string, v any) (int, []byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: encode %s: %w", path, err)
	}
	var lastErr error
	for attempt := 1; attempt <= c.attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if rerr != nil {
				err = rerr
			} else if resp.StatusCode >= 500 {
				lastErr = fmt.Errorf("cluster: %s: status %d: %s", path, resp.StatusCode, body)
				err = lastErr
			} else {
				return resp.StatusCode, body, nil
			}
		}
		lastErr = err
		if attempt < c.attempts {
			if err := resilience.Sleep(ctx, c.backoff.Delay(attempt, c.key)); err != nil {
				return 0, nil, err
			}
		}
	}
	return 0, nil, fmt.Errorf("cluster: %s failed after %d attempts: %w", path, c.attempts, lastErr)
}
