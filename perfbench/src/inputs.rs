//! The input of one benchmark run.
//!
//! A run's input is the suite netlist generated at the netlist seed with
//! its nets renumbered by a permutation the run seed picks: the same
//! cells, positions and connectivity, listed in another order. The order
//! reaches every net-indexed loop, tie-break and floating-point summation
//! in the program, so each seed is a distinct input, yet the work and the
//! quality stay those of the one circuit. Netlists generated at different
//! seeds are not comparable that way: over nine seeds, s38417 on the
//! weighted route took 5.8–12.9 s per flow, and on the eq.-3 route its
//! max ring load ranged over ±30%, which would swamp any bound.

use rotary_netlist::{BenchmarkSuite, Circuit};

/// `suite`'s netlist at `netlist_seed` with its nets renumbered by the
/// permutation `seed` picks. The same arguments always give the same
/// circuit.
///
/// # Panics
///
/// Panics if the renumbered circuit fails validation, which would be a
/// bug here.
pub fn generate(suite: BenchmarkSuite, netlist_seed: u64, seed: u64) -> Circuit {
    let mut c = suite.circuit(netlist_seed);
    let mut state = seed;
    for i in (1..c.nets.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        c.nets.swap(i, j);
    }
    c.validate().expect("a renumbered netlist stays valid");
    c
}

/// SplitMix64: advances `state` and returns the next output.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renumbering_keeps_the_circuit() {
        let base = BenchmarkSuite::S9234.circuit(2006);
        let c = generate(BenchmarkSuite::S9234, 2006, 42);
        assert_eq!(c.net_count(), base.net_count());
        assert_eq!(c.positions, base.positions);
        assert!((c.total_hpwl() - base.total_hpwl()).abs() < 1e-6 * base.total_hpwl());
        let drivers = |c: &Circuit| c.nets.iter().map(|n| n.driver).collect::<Vec<_>>();
        assert_ne!(drivers(&c), drivers(&base));
        assert_eq!(drivers(&c), drivers(&generate(BenchmarkSuite::S9234, 2006, 42)));
    }
}
