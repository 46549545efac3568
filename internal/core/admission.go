// admission.go is the client edge of per-tenant admission control:
// the typed overload error and the op-entry hook that charges
// tenant-tagged operations (WithTenant) against the deployment's
// token-bucket limiter (internal/traffic) before any server-side
// state — in particular a version ticket — is created.

package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/traffic"
)

// ErrOverloaded is the typed backpressure error: the operation was
// rejected at admission because its tenant is over rate (see
// Options.TenantRate and the WithTenant option). Over-limit work fails
// fast with this error instead of queueing unboundedly; rejected
// writes hold no version ticket, so the publication frontier can never
// wedge on them. Match with errors.Is; RetryAfter recovers the hint.
var ErrOverloaded = traffic.ErrOverloaded

// RetryAfter extracts the retry-after hint from an overload rejection:
// how long (in virtual time) until the tenant's bucket next holds a
// full token. 0 when err is not an admission rejection.
func RetryAfter(err error) time.Duration {
	var oe *traffic.OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// admit charges one operation to the deployment's admission limiter.
// Untenanted operations and deployments without admission pass
// through untouched. The returned release decrements the tenant's
// in-flight gauge; callers defer it around the whole operation.
func (c *Client) admit(s opSettings) (release func(), err error) {
	lim := c.d.Admission
	if lim == nil || s.tenant == "" {
		return func() {}, nil
	}
	release, err = lim.Admit(s.tenant)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return release, nil
}
