//! Criterion benchmarks of the byte-level layers: frame serialization and
//! parsing, FCS computation, radiotap encode/parse, and pcap write/read.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use wifi_frames::fc::FcFlags;
use wifi_frames::frame::{Data, Frame, SeqCtl};
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Rate};
use wifi_frames::radiotap::{self, CaptureMeta, FLAG_FCS_AT_END};
use wifi_frames::{fcs, wire};
use wifi_pcap::{LinkType, PcapStream, PcapWriter};

fn data_frame(payload: usize) -> Frame {
    Frame::Data(Data {
        flags: FcFlags {
            to_ds: true,
            ..FcFlags::default()
        },
        duration: 314,
        addr1: MacAddr::from_id(1),
        addr2: MacAddr::from_id(2),
        addr3: MacAddr::from_id(1),
        seq: SeqCtl::new(1234, 0),
        payload: vec![0xA5; payload],
        null: false,
    })
}

fn bench_wire(c: &mut Criterion) {
    let frame = data_frame(1472);
    let bytes = wire::encode(&frame);
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_1500B_data", |b| {
        b.iter(|| black_box(wire::encode(black_box(&frame))))
    });
    g.bench_function("parse_1500B_data", |b| {
        b.iter(|| black_box(wire::parse(black_box(&bytes)).unwrap()))
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
    // Write 1000 records into memory, then benchmark reading them back.
    let payload = vec![0xEEu8; 275];
    let mut file = Vec::new();
    {
        let mut w = PcapWriter::new(&mut file, LinkType::Radiotap, 0).unwrap();
        for i in 0..1000u64 {
            w.write_packet(i * 1000, &payload).unwrap();
        }
    }
    let mut g = c.benchmark_group("pcap");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("write_1000_records", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(file.len());
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
            for i in 0..1000u64 {
                w.write_packet(i * 1000, black_box(&payload)).unwrap();
            }
            black_box(buf)
        })
    });
    g.bench_function("read_1000_records", |b| {
        b.iter(|| {
            let mut r = PcapStream::new(black_box(&file[..])).unwrap();
            let mut n = 0usize;
            while r.next_packet().unwrap().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_wire, bench_fcs, bench_radiotap, bench_pcap);
criterion_main!(benches);
