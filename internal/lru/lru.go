// Package lru holds the way-partitioning rule shared by every LRU set
// that enforces per-tenant way quotas: the traditional cache
// (internal/cache) and the distill cache's LOC (internal/distill).
// Both keep their own MRU-first set arrays and hit paths; what they
// share is the tenant limit, the quota validation, and the victim
// choice on a partitioned miss, which must agree so that the partition
// controller's allocations mean the same thing in both organizations.
package lru

import "fmt"

// MaxTenants bounds the tenants a partitioned set can distinguish.
// Occupancy counts fit a fixed stack array at this size, keeping the
// victim rule allocation-free.
const MaxTenants = 8

// Free marks an invalid way in the owners slice passed to Victim.
const Free = 0xFF

// Quotas validates per-tenant way quotas against a set of ways ways
// and copies them into dst (reusing its storage), returning the
// result. An empty quota returns nil: partitioning disabled.
func Quotas(dst []int32, quota []int, ways int) ([]int32, error) {
	if len(quota) == 0 {
		return nil, nil
	}
	if len(quota) > MaxTenants {
		return nil, fmt.Errorf("%d tenants exceed %d", len(quota), MaxTenants)
	}
	sum := 0
	for t, q := range quota {
		if q < 0 {
			return nil, fmt.Errorf("negative quota %d for tenant %d", q, t)
		}
		sum += q
	}
	if sum > ways {
		return nil, fmt.Errorf("quota sum %d exceeds %d ways", sum, ways)
	}
	if dst == nil {
		dst = make([]int32, 0, MaxTenants)
	}
	dst = dst[:0]
	for _, q := range quota {
		dst = append(dst, int32(q))
	}
	return dst, nil
}

// Victim picks the way a missing tenant replaces. owners lists the
// set's ways MRU-first, each entry the tenant that installed the line
// or Free. An invalid way fills first. Otherwise a tenant at or over
// its quota evicts its own LRU-most line, and a tenant under it evicts
// the LRU-most line of an over-quota tenant (or of a tenant the quotas
// do not name). The global-LRU fallbacks are unreachable when the
// quotas sum to the associativity with every tenant granted at least
// one way, but a transient quota shrink can leave every other tenant
// exactly at its new quota; taking the LRU way then keeps the install
// total.
//
//ldis:noalloc
func Victim(owners []uint8, quota []int32, tenant int) int {
	var occ [MaxTenants]int32
	invalid := -1
	for pos, t := range owners {
		if t == Free {
			invalid = pos
			continue
		}
		occ[t]++
	}
	if invalid >= 0 {
		return invalid
	}
	if tenant < len(quota) && occ[tenant] >= quota[tenant] {
		for pos := len(owners) - 1; pos >= 0; pos-- {
			if int(owners[pos]) == tenant {
				return pos
			}
		}
		return len(owners) - 1 // quota 0 and no resident line
	}
	for pos := len(owners) - 1; pos >= 0; pos-- {
		t := owners[pos]
		if int(t) >= len(quota) || occ[t] > quota[t] {
			return pos
		}
	}
	return len(owners) - 1
}
