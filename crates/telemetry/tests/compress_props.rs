//! Seeded random-series tests: Gorilla compression must be lossless on
//! arbitrary monotone time series, and TSDB invariants must hold under
//! random usage.

use dust_telemetry::{compress, decompress, Series, Tsdb};
use dust_topology::SplitMix64;

/// Arbitrary monotone series: random non-negative deltas and float values
/// (including weird ones: infinities, extreme magnitudes, subnormals).
fn arb_series(rng: &mut SplitMix64) -> Series {
    let len = rng.below(200) as usize;
    let mut s = Series::default();
    let mut t = 0u64;
    for _ in 0..len {
        t += rng.below(5_000);
        let v = match rng.below(10) {
            0 => 0.0,
            1 => match rng.below(4) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => f64::MAX,
                _ => f64::MIN_POSITIVE,
            },
            _ => rng.range_f64(-1.0e6, 1.0e6),
        };
        s.push(t, v);
    }
    s
}

/// Lossless round trip for arbitrary series.
#[test]
fn compression_is_lossless() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let block = compress(&s);
        assert_eq!(block.count, s.len(), "seed {seed}");
        let back = decompress(&block).expect("well-formed block must decompress");
        assert_eq!(back.points(), s.points(), "seed {seed}");
    }
}

/// Steady cadences compress below raw size once the series is long
/// enough to amortize the 17-byte header.
#[test]
fn steady_series_beat_raw() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range_u64(10, 300) as usize;
        let period = rng.range_u64(1, 10_000);
        let v = rng.range_f64(-100.0, 100.0);
        let mut s = Series::default();
        for i in 0..n as u64 {
            s.push(i * period, v);
        }
        let block = compress(&s);
        assert!(
            block.size_bytes() < n * 16,
            "seed {seed}: {} bytes vs raw {}",
            block.size_bytes(),
            n * 16
        );
    }
}

/// Range queries return exactly the in-window points, in order.
#[test]
fn range_is_exact() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let start = rng.below(100_000);
        let end = start.saturating_add(rng.below(100_000));
        let got = s.range(start, end);
        let expect: Vec<_> =
            s.points().iter().copied().filter(|p| p.ts_ms >= start && p.ts_ms < end).collect();
        assert_eq!(got, &expect[..], "seed {seed}");
    }
}

/// Downsampling never yields more points than the source.
#[test]
fn downsample_shrinks() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let bucket = rng.range_u64(1, 5_000);
        // skip pathological float inputs
        if s.points().iter().any(|p| !p.value.is_finite()) {
            continue;
        }
        let d = s.downsample(bucket);
        assert!(d.len() <= s.len(), "seed {seed}");
        if !s.is_empty() {
            assert!(!d.is_empty(), "seed {seed}");
        }
    }
}

/// Retention trims exactly the points older than the horizon.
#[test]
fn trim_respects_horizon() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let now = rng.below(2_000_000);
        let horizon = rng.below(1_000_000);
        let mut t = s.clone();
        let dropped = t.trim(now, horizon);
        let cutoff = now.saturating_sub(horizon);
        assert_eq!(dropped + t.len(), s.len(), "seed {seed}");
        assert!(t.points().iter().all(|p| p.ts_ms >= cutoff), "seed {seed}");
    }
}

/// TSDB appends are isolated per series name.
#[test]
fn tsdb_series_isolated() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        // 1–29 names over the same alphabet as the old "[a-c]{1,2}" regex
        let count = rng.range_u64(1, 30) as usize;
        let names: Vec<String> = (0..count)
            .map(|_| {
                let len = 1 + rng.below(2) as usize;
                (0..len).map(|_| (b'a' + rng.below(3) as u8) as char).collect()
            })
            .collect();
        let mut db = Tsdb::new();
        for (i, n) in names.iter().enumerate() {
            db.append(n, i as u64, i as f64);
        }
        let total: usize = db.series_names().iter().map(|n| db.series(n).unwrap().len()).sum();
        assert_eq!(total, names.len(), "seed {seed}");
    }
}

use dust_telemetry::{deframe, frame};

/// Framing round-trips any compressed block, and single-bit corruption
/// anywhere in the payload or checksum is always detected.
#[test]
fn framing_roundtrip_and_corruption() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let flip_bit = rng.next_u64() as u32;
        let block = compress(&s);
        let framed = frame(&block);
        let (back, used) = deframe(&framed).expect("own frames must parse");
        assert_eq!(used, framed.len(), "seed {seed}");
        assert_eq!(&back, &block, "seed {seed}");

        // flip one bit beyond the magic: must fail (header fields may fail
        // differently than payload, but never silently succeed with
        // different content)
        if framed.len() > 5 {
            let idx = 4 + (flip_bit as usize % (framed.len() - 4));
            let bit = 1u8 << (flip_bit % 8);
            let mut corrupt = framed.clone();
            corrupt[idx] ^= bit;
            match deframe(&corrupt) {
                Err(_) => {}
                Ok((b, _)) => assert_eq!(
                    b, block,
                    "seed {seed}: a parse that succeeds after a bit flip must still match (flip hit padding)"
                ),
            }
        }
    }
}

/// Deframing arbitrary bytes never panics.
#[test]
fn deframe_is_total() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed);
        let len = rng.below(300) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = deframe(&bytes);
        let _ = dust_telemetry::deframe_stream(&bytes);
    }
    // magic, count 0, a payload length of u64::MAX - 16 and 8 zero bytes:
    // the frame end lands just below u64::MAX, so its CRC offset overflows
    let mut crafted = b"DTF1\0".to_vec();
    let mut len = u64::MAX - 16;
    while len >= 0x80 {
        crafted.push(len as u8 | 0x80);
        len >>= 7;
    }
    crafted.push(len as u8);
    crafted.extend_from_slice(&[0; 8]);
    assert_eq!(crafted.len(), 23);
    assert!(deframe(&crafted).is_err());
    assert!(dust_telemetry::deframe_stream(&crafted).0.is_empty());
}
