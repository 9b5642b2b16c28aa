package lru

import "testing"

func TestQuotas(t *testing.T) {
	if q, err := Quotas(nil, nil, 8); q != nil || err != nil {
		t.Errorf("empty quota = %v, %v; want nil, nil", q, err)
	}
	q, err := Quotas(nil, []int{3, 5}, 8)
	if err != nil || len(q) != 2 || q[0] != 3 || q[1] != 5 || cap(q) != MaxTenants {
		t.Fatalf("Quotas = %v (cap %d), %v", q, cap(q), err)
	}
	if q2, _ := Quotas(q, []int{1}, 8); &q2[0] != &q[0] || len(q2) != 1 {
		t.Error("Quotas did not reuse dst's storage")
	}
	for _, bad := range [][]int{
		{1, 1, 1, 1, 1, 1, 1, 1, 0}, // 9 tenants
		{2, -1},
		{4, 5}, // 9 > 8 ways
	} {
		if _, err := Quotas(nil, bad, 8); err == nil {
			t.Errorf("Quotas(%v) accepted", bad)
		}
	}
}

func TestVictim(t *testing.T) {
	cases := []struct {
		name   string
		owners []uint8
		quota  []int32
		tenant int
		want   int
	}{
		{"free way first, LRU-most free", []uint8{0, Free, 1, Free}, []int32{1, 1}, 0, 3},
		{"at quota: own LRU-most", []uint8{0, 1, 0, 1}, []int32{2, 2}, 0, 2},
		{"over quota: own LRU-most", []uint8{0, 0, 0, 1}, []int32{2, 2}, 0, 2},
		{"under quota: over-quota tenant's LRU-most", []uint8{1, 1, 0, 1}, []int32{2, 2}, 0, 3},
		{"unnamed tenant counts as over quota", []uint8{0, 2, 1, 0}, []int32{2, 2}, 1, 1},
		{"quota 0, nothing resident: global LRU", []uint8{0, 0, 1, 1}, []int32{2, 2, 0}, 2, 3},
		{"at quota with one line: that line", []uint8{0, 0, 1, 2}, []int32{2, 1, 1}, 1, 2},
		{"nobody over quota, under-quota miss: global LRU", []uint8{0, 1, 0, 1}, []int32{2, 2, 1}, 2, 3},
	}
	for _, tc := range cases {
		if got := Victim(tc.owners, tc.quota, tc.tenant); got != tc.want {
			t.Errorf("%s: Victim(%v, %v, %d) = %d, want %d", tc.name, tc.owners, tc.quota, tc.tenant, got, tc.want)
		}
	}
}
