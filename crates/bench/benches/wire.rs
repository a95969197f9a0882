//! Criterion benchmarks of the byte-level layers: the capture writer's
//! per-record frame encoding, header parsing of a snaplen-cut frame, FCS
//! computation, radiotap encode/parse, and pcap write/read (with the
//! decoder's setup timed alone, so the read loop is the difference).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Rate};
use wifi_frames::radiotap::{self, CaptureMeta, FLAG_FCS_AT_END};
use wifi_frames::{fcs, wire, FrameKind, FrameRecord};
use wifi_pcap::{LinkType, PcapNgWriter, PcapStream, PcapWriter};

/// A to-AP data record carrying `payload` bytes.
fn data_record(payload: u32) -> FrameRecord {
    FrameRecord {
        timestamp_us: 123_456_789,
        kind: FrameKind::Data,
        rate: Rate::R11,
        channel: Channel::new(6).unwrap(),
        dst: MacAddr::from_id(1),
        src: Some(MacAddr::from_id(2)),
        bssid: Some(MacAddr::from_id(1)),
        retry: false,
        seq: Some(1234),
        mac_bytes: payload + 28,
        payload_bytes: payload,
        signal_dbm: -58,
        duration_us: 314,
    }
}

fn bench_wire(c: &mut Criterion) {
    let record = data_record(1472);
    let bytes = wire::encode(&record);
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_record_1500B_data", |b| {
        b.iter(|| black_box(wire::encode(black_box(&record))))
    });
    g.bench_function("parse_header_truncated", |b| {
        b.iter(|| black_box(wire::parse_header(black_box(&bytes[..250])).unwrap()))
    });
    g.finish();
}

fn bench_fcs(c: &mut Criterion) {
    let data = vec![0x5Au8; 1500];
    let mut g = c.benchmark_group("fcs");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("crc32_1500B", |b| {
        b.iter(|| black_box(fcs::crc32(black_box(&data))))
    });
    g.finish();
}

fn bench_radiotap(c: &mut Criterion) {
    let meta = CaptureMeta {
        tsft_us: 123_456_789,
        flags: FLAG_FCS_AT_END,
        rate: Rate::R11,
        channel: Channel::new(6).unwrap(),
        signal_dbm: -58,
        noise_dbm: -95,
        antenna: 1,
    };
    let frame = vec![0u8; 250];
    let packet = radiotap::encode_packet(&meta, &frame);
    c.bench_function("radiotap_encode", |b| {
        b.iter(|| black_box(radiotap::encode_packet(black_box(&meta), black_box(&frame))))
    });
    c.bench_function("radiotap_parse", |b| {
        b.iter(|| black_box(radiotap::parse_packet(black_box(&packet)).unwrap()))
    });
}

fn bench_pcap(c: &mut Criterion) {
    // Write 1000 records into memory in each container, then benchmark
    // reading them back through the one decoder, and the decoder's setup
    // (`PcapStream::new`: window allocation and the header) alone.
    let payload = vec![0xEEu8; 275];
    let mut file = Vec::new();
    let mut ng_file = Vec::new();
    {
        let mut w = PcapWriter::new(&mut file, LinkType::Radiotap, 0).unwrap();
        let mut ng = PcapNgWriter::new(&mut ng_file, LinkType::Radiotap, 0).unwrap();
        for i in 0..1000u64 {
            w.write_packet(i * 1000, &payload, 275).unwrap();
            ng.write_packet(i * 1000, &payload, 275).unwrap();
        }
    }
    let mut g = c.benchmark_group("pcap");
    for (id, bytes) in [("stream_new", &file), ("stream_new_pcapng", &ng_file)] {
        g.bench_function(id, |b| {
            b.iter(|| black_box(PcapStream::new(black_box(&bytes[..])).unwrap()))
        });
    }
    g.throughput(Throughput::Elements(1000));
    g.bench_function("write_1000_records", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(file.len());
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
            for i in 0..1000u64 {
                w.write_packet(i * 1000, black_box(&payload), 275).unwrap();
            }
            black_box(buf)
        })
    });
    for (id, bytes) in [
        ("read_1000_records", &file),
        ("read_1000_records_pcapng", &ng_file),
    ] {
        g.bench_function(id, |b| {
            b.iter(|| {
                let mut r = PcapStream::new(black_box(&bytes[..])).unwrap();
                let mut n = 0usize;
                while r.next_packet().unwrap().is_some() {
                    n += 1;
                }
                black_box(n)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_wire, bench_fcs, bench_radiotap, bench_pcap);
criterion_main!(benches);
