package main

import (
	"math/big"
	"math/rand"
	"time"

	"repro/internal/crypto/ecies"
	"repro/internal/crypto/keccak"
	"repro/internal/crypto/secp256k1"
)

// kernelRounds × kernelBatch calls per kernel; the reported ns/op is
// the median batch, so one preempted batch does not move it.
const (
	kernelRounds = 7
	kernelBatch  = 40
)

// runKernels makes fixed-count calls to the public secp256k1, keccak
// and ecies functions every RLPx handshake spends its time in, and
// reports ns per call. These move first when the curve or the hash
// gets faster, whichever workload the traced run belongs to.
func runKernels(rep *report, seed int64, tiny bool) {
	rounds, batch := kernelRounds, kernelBatch
	if tiny {
		rounds, batch = 3, 4
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6b65726e))
	a, err := secp256k1.GenerateKey(rng)
	if err != nil {
		rep.problem("kernel: key: %v", err)
		return
	}
	b, err := secp256k1.GenerateKey(rng)
	if err != nil {
		rep.problem("kernel: key: %v", err)
		return
	}
	hash := keccak.Sum256([]byte("perfbench kernel"))
	sig, err := secp256k1.Sign(a, hash[:])
	if err != nil {
		rep.problem("kernel: sign: %v", err)
		return
	}
	msg := make([]byte, 136) // one keccak-256 rate block
	rng.Read(msg)
	ct, err := ecies.Encrypt(rng, &b.Pub, msg, nil, nil)
	if err != nil {
		rep.problem("kernel: ecies: %v", err)
		return
	}
	k := new(big.Int).SetBytes(hash[:])

	var calls, failures int
	bench := func(name string, n int, fn func() bool) {
		var per dist
		for r := 0; r < rounds; r++ {
			start := time.Now()
			calls += n
			for i := 0; i < n; i++ {
				if !fn() {
					failures++
				}
			}
			per.add(float64(time.Since(start).Nanoseconds()) / float64(n))
		}
		rep.add(name, "ns", per.median(), rounds*n, "median of per-batch means")
	}
	bench("secp256k1.ecdh_ns", batch, func() bool {
		_, err := secp256k1.SharedSecret(a, &b.Pub)
		return err == nil
	})
	bench("secp256k1.sign_ns", batch, func() bool {
		_, err := secp256k1.Sign(a, hash[:])
		return err == nil
	})
	bench("secp256k1.recover_ns", batch, func() bool {
		pub, err := secp256k1.RecoverPubkey(hash[:], sig)
		return err == nil && pub.X.Cmp(a.Pub.X) == 0
	})
	bench("secp256k1.scalar_base_mult_ns", batch, func() bool {
		return !secp256k1.ScalarBaseMult(k).IsInfinity()
	})
	want := keccak.Sum256(msg)
	bench("keccak.sum256_ns", 100*batch, func() bool {
		return keccak.Sum256(msg) == want
	})
	bench("ecies.encrypt_ns", batch, func() bool {
		_, err := ecies.Encrypt(rng, &b.Pub, msg, nil, nil)
		return err == nil
	})
	bench("ecies.decrypt_ns", batch, func() bool {
		pt, err := ecies.Decrypt(b, ct, nil, nil)
		return err == nil && len(pt) == len(msg)
	})
	rep.count(calls, failures)
	if failures > 0 {
		rep.problem("kernel: %d calls returned wrong results", failures)
	}
}
