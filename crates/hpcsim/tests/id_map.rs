//! [`IdMap`]'s hasher on the key shapes the task builders produce. hashbrown
//! takes a key's bucket from the hash's low bits and its in-group tag from
//! the top seven, so both ends must spread strided ids; a random function
//! hits 1 − 1/e ≈ 63 % of 65 536 values with 65 536 keys and puts 512 of
//! them under each of the 128 tags, while an identity or bare-multiply hash
//! on `i << 32` hits exactly one low value.

use std::hash::BuildHasher;

use hpcsim::IdMap;

/// Share of the 65 536 low-16-bit values hit, and the fullest top-7-bit
/// tag, over the hashes of 65 536 `keys`.
fn spread(keys: impl Iterator<Item = u64>) -> (f64, usize) {
    let map: IdMap<()> = IdMap::default();
    let mut low_seen = vec![false; 1 << 16];
    let mut tags = [0usize; 128];
    let mut n = 0usize;
    for key in keys {
        let hash = map.hasher().hash_one(key);
        low_seen[(hash & 0xffff) as usize] = true;
        tags[(hash >> 57) as usize] += 1;
        n += 1;
    }
    assert_eq!(n, 1 << 16);
    let hit = low_seen.iter().filter(|&&seen| seen).count();
    (hit as f64 / low_seen.len() as f64, *tags.iter().max().expect("128 tags"))
}

#[test]
fn id_hasher_spreads_strided_keys() {
    let check = |what: String, (low_share, fullest_tag): (f64, usize)| {
        assert!(low_share >= 0.60, "{what}: low 16 bits hit only {:.1} %", low_share * 100.0);
        assert!(fullest_tag <= 2 * 512, "{what}: one tag holds {fullest_tag} of 65 536 keys");
    };
    for shift in 0..=40 {
        check(format!("i << {shift}"), spread((0..1u64 << 16).map(|i| i << shift)));
    }
    // Task ids as the task builders stride them: `doc · 2 + parity`,
    // `doc · (pages + 4) + k`.
    for stride in [2u64, 3, 4, 12, 36, 100, 1 << 20] {
        for offset in [0, 1, stride - 1] {
            check(format!("i · {stride} + {offset}"), spread((0..1u64 << 16).map(|i| i * stride + offset)));
        }
    }
}

#[test]
fn id_map_finds_what_it_stored_under_colliding_low_bits() {
    let mut map: IdMap<u64> = IdMap::default();
    for i in 0..1000u64 {
        map.insert(i << 32, i);
    }
    assert!((0..1000u64).all(|i| map.get(&(i << 32)) == Some(&i)));
    assert_eq!(map.get(&1), None);
    map.retain(|_, &mut i| i >= 500);
    assert_eq!(map.len(), 500);
}
