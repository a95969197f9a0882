//! Criterion benchmarks of the k-way streaming merge against the batch
//! sort-and-dedup path, at 2 / 3 / 8 sniffers of one channel.
//!
//! The two produce record-identical output (pinned by the proptests in
//! `crates/core`); what differs is cost shape. The batch path concatenates,
//! sorts the whole union, then scans; the streaming path pays exactly one
//! scan of the k stream heads per merged record and a scan of the few live
//! dedup clusters per dedup decision, in O(window) memory. Throughput is
//! reported per *input* record so the numbers stay comparable as the
//! sniffer count (and so the duplicate ratio) grows.

use congestion::merge::{merge_traces, MergeStream};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use wifi_frames::fc::FrameKind;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Rate};
use wifi_frames::record::FrameRecord;

/// A dense data/ACK channel, then `sniffers` skewed ~80 %-coverage views of
/// it — the same shape as the `trace-merge-3x` pin, minus the pcap layer.
fn sniffer_views(sniffers: usize, exchanges: u64) -> Vec<Vec<FrameRecord>> {
    let rates = [Rate::R1, Rate::R2, Rate::R5_5, Rate::R11];
    let payloads = [64u32, 400, 900, 1472];
    let mut base = Vec::with_capacity(2 * exchanges as usize);
    for i in 0..exchanges {
        let t = i * 667;
        let src = MacAddr::from_id(1 + (i % 40) as u32);
        let payload = payloads[(i as usize / 4) % 4];
        base.push(FrameRecord {
            timestamp_us: t,
            kind: FrameKind::Data,
            rate: rates[i as usize % 4],
            channel: Channel::new(1).unwrap(),
            dst: MacAddr::from_id(99),
            src: Some(src),
            bssid: Some(MacAddr::from_id(99)),
            retry: i % 7 == 0,
            seq: Some((i % 4096) as u16),
            mac_bytes: payload + 28,
            payload_bytes: payload,
            signal_dbm: -60,
            duration_us: 314,
        });
        base.push(FrameRecord {
            timestamp_us: t + 340,
            kind: FrameKind::Ack,
            rate: Rate::R1,
            channel: Channel::new(1).unwrap(),
            dst: src,
            src: None,
            bssid: None,
            retry: false,
            seq: None,
            mac_bytes: 14,
            payload_bytes: 0,
            signal_dbm: -60,
            duration_us: 0,
        });
    }
    (0..sniffers)
        .map(|s| {
            base.iter()
                .enumerate()
                .filter(|(i, _)| {
                    let h =
                        (*i as u64 ^ ((s as u64) << 32) ^ 11).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    !(h >> 33).is_multiple_of(5)
                })
                .map(|(_, r)| {
                    let mut r = *r;
                    r.timestamp_us += 25 * s as u64;
                    r
                })
                .collect()
        })
        .collect()
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_merge");
    for sniffers in [2usize, 3, 8] {
        let views = sniffer_views(sniffers, 15_000);
        let total: usize = views.iter().map(Vec::len).sum();
        group.throughput(Throughput::Elements(total as u64));
        let slices: Vec<&[FrameRecord]> = views.iter().map(Vec::as_slice).collect();
        group.bench_function(&format!("batch_{sniffers}_sniffers"), |b| {
            b.iter(|| black_box(merge_traces(black_box(&slices))).len())
        });
        group.bench_function(&format!("streaming_{sniffers}_sniffers"), |b| {
            b.iter(|| {
                let streams: Vec<_> = views.iter().map(|v| v.iter().copied()).collect();
                black_box(MergeStream::new(streams).count())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
