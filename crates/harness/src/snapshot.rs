//! Topology-snapshot persistence for the harness: a JSON Lines rendering
//! of `asi_state::Snapshot` next to the crate's compact binary encoding,
//! plus save/load helpers that sniff the format on load.
//!
//! The JSONL form is one object per line — a header carrying the format
//! version, host DSN and the binary encoding's checksum, then one line
//! per device and one per link — so snapshots diff cleanly under line
//! tools and stream through the same machinery as discovery traces.
//! Every u64 that may not survive an f64 round trip (DSNs, checksum,
//! turn-pool words) is rendered as a `0x…` hex string.

use crate::json::{self, Json};
use asi_proto::{DeviceInfo, DeviceType, PortInfo, PortState, TurnPool};
use asi_state::{checksum_of, DeviceRecord, DeviceRoute, Snapshot, SNAPSHOT_VERSION};
use std::path::Path;

/// On-disk snapshot encodings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotFormat {
    /// The `asi-state` compact binary codec (magic `ASIS`).
    Binary,
    /// One JSON object per line (header, devices, links).
    Jsonl,
}

fn hex(v: u64) -> String {
    format!("{v:#x}")
}

fn from_hex(json: &Json, key: &str) -> Result<u64, String> {
    let s = json
        .get(key)
        .as_str()
        .ok_or_else(|| format!("missing hex field `{key}`"))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("field `{key}`: expected 0x-prefixed hex, got `{s}`"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("field `{key}`: {e}"))
}

fn get_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .as_u64()
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn get_bool(json: &Json, key: &str) -> Result<bool, String> {
    json.get(key)
        .as_bool()
        .ok_or_else(|| format!("missing boolean field `{key}`"))
}

fn type_tag(t: DeviceType) -> &'static str {
    match t {
        DeviceType::Switch => "switch",
        DeviceType::Endpoint => "endpoint",
    }
}

fn state_tag(s: PortState) -> &'static str {
    match s {
        PortState::Down => "down",
        PortState::Training => "training",
        PortState::Active => "active",
    }
}

fn device_to_json(d: &DeviceRecord) -> Json {
    let pool_words: Vec<Json> = d
        .route
        .pool
        .to_pool()
        .words()
        .iter()
        .map(|&w| Json::Str(hex(w)))
        .collect();
    let ports: Vec<Json> = d
        .ports
        .iter()
        .map(|p| match p {
            None => Json::Null,
            Some(p) => Json::object()
                .with("state", state_tag(p.state))
                .with("link_width", p.link_width)
                .with("link_speed", p.link_speed)
                .with("peer_port", p.peer_port),
        })
        .collect();
    Json::object()
        .with("kind", "device")
        .with("dsn", hex(d.info.dsn))
        .with("type", type_tag(d.info.device_type))
        .with("port_count", d.info.port_count)
        .with("max_packet_size", d.info.max_packet_size)
        .with("fm_capable", d.info.fm_capable)
        .with("fm_priority", d.info.fm_priority)
        .with("egress", d.route.egress)
        .with("entry_port", d.route.entry_port)
        .with("hops", d.route.hops)
        .with("pool_len", d.route.pool.len_bits())
        .with("pool_capacity", d.route.pool.capacity())
        .with("pool_words", Json::Arr(pool_words))
        .with("ports", Json::Arr(ports))
}

fn device_from_json(json: &Json) -> Result<DeviceRecord, String> {
    let device_type = match json.get("type").as_str() {
        Some("switch") => DeviceType::Switch,
        Some("endpoint") => DeviceType::Endpoint,
        other => return Err(format!("unknown device type {other:?}")),
    };
    let info = DeviceInfo {
        device_type,
        dsn: from_hex(json, "dsn")?,
        port_count: get_u64(json, "port_count")? as u16,
        max_packet_size: get_u64(json, "max_packet_size")? as u16,
        fm_capable: get_bool(json, "fm_capable")?,
        fm_priority: get_u64(json, "fm_priority")? as u8,
    };
    let words_json = json
        .get("pool_words")
        .as_array()
        .ok_or("missing `pool_words`")?;
    if words_json.len() != asi_proto::POOL_WORDS {
        return Err(format!(
            "`pool_words` has {} entries, not {}",
            words_json.len(),
            asi_proto::POOL_WORDS
        ));
    }
    let mut words = [0u64; asi_proto::POOL_WORDS];
    for (i, w) in words_json.iter().enumerate() {
        let s = w.as_str().ok_or("non-string pool word")?;
        let digits = s.strip_prefix("0x").ok_or("pool word not 0x-prefixed")?;
        words[i] = u64::from_str_radix(digits, 16).map_err(|e| format!("pool word: {e}"))?;
    }
    let pool = TurnPool::from_words(
        words,
        get_u64(json, "pool_len")? as u16,
        get_u64(json, "pool_capacity")? as u16,
    )
    .map_err(|e| format!("turn pool: {e:?}"))?;
    let route = DeviceRoute {
        egress: get_u64(json, "egress")? as u8,
        entry_port: get_u64(json, "entry_port")? as u8,
        hops: get_u64(json, "hops")? as u16,
        pool,
    }
    .into();
    let ports_json = json.get("ports").as_array().ok_or("missing `ports`")?;
    let mut ports = Vec::with_capacity(ports_json.len());
    for p in ports_json {
        if *p == Json::Null {
            ports.push(None);
            continue;
        }
        let state = match p.get("state").as_str() {
            Some("down") => PortState::Down,
            Some("training") => PortState::Training,
            Some("active") => PortState::Active,
            other => return Err(format!("unknown port state {other:?}")),
        };
        ports.push(Some(PortInfo {
            state,
            link_width: get_u64(p, "link_width")? as u8,
            link_speed: get_u64(p, "link_speed")? as u8,
            peer_port: get_u64(p, "peer_port")? as u8,
        }));
    }
    let ports = ports.into();
    Ok(DeviceRecord { info, route, ports })
}

/// Renders a snapshot as JSON Lines. The header repeats the binary
/// codec's checksum, so the two encodings cross-validate.
pub fn snapshot_to_jsonl(snapshot: &Snapshot) -> String {
    let mut snapshot = snapshot.clone();
    snapshot.canonicalize();
    let mut out = String::new();
    let header = Json::object()
        .with("kind", "snapshot")
        .with("version", u64::from(SNAPSHOT_VERSION))
        .with("host_dsn", hex(snapshot.host_dsn))
        .with("devices", snapshot.device_count())
        .with("links", snapshot.link_count())
        .with("checksum", hex(checksum_of(&snapshot)));
    out.push_str(&header.to_string_compact());
    out.push('\n');
    for d in &snapshot.devices {
        out.push_str(&device_to_json(d).to_string_compact());
        out.push('\n');
    }
    for &(a, ap, b, bp) in &snapshot.links {
        let link = Json::object()
            .with("kind", "link")
            .with("a", hex(a))
            .with("a_port", ap)
            .with("b", hex(b))
            .with("b_port", bp);
        out.push_str(&link.to_string_compact());
        out.push('\n');
    }
    out
}

/// Parses the JSONL rendering back into a snapshot. Record counts and
/// the header checksum are verified; a mismatch (hand-edited or
/// truncated dump) fails with a description.
pub fn snapshot_from_jsonl(text: &str) -> Result<Snapshot, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty snapshot file")?;
    let header = json::parse(first).map_err(|e| format!("line 1: {e}"))?;
    if header.get("kind").as_str() != Some("snapshot") {
        return Err("first record is not a snapshot header".into());
    }
    let version = get_u64(&header, "version")?;
    if version != u64::from(SNAPSHOT_VERSION) {
        return Err(format!(
            "snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
        ));
    }
    let mut snapshot = Snapshot::new(from_hex(&header, "host_dsn")?);
    for (i, line) in lines {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match record.get("kind").as_str() {
            Some("device") => snapshot
                .devices
                .push(device_from_json(&record).map_err(|e| format!("line {}: {e}", i + 1))?),
            Some("link") => snapshot.links.push((
                from_hex(&record, "a").map_err(|e| format!("line {}: {e}", i + 1))?,
                get_u64(&record, "a_port").map_err(|e| format!("line {}: {e}", i + 1))? as u8,
                from_hex(&record, "b").map_err(|e| format!("line {}: {e}", i + 1))?,
                get_u64(&record, "b_port").map_err(|e| format!("line {}: {e}", i + 1))? as u8,
            )),
            other => return Err(format!("line {}: unknown record kind {other:?}", i + 1)),
        }
    }
    snapshot.canonicalize();
    if snapshot.device_count() as u64 != get_u64(&header, "devices")?
        || snapshot.link_count() as u64 != get_u64(&header, "links")?
    {
        return Err("record counts do not match the header".into());
    }
    let stored = from_hex(&header, "checksum")?;
    let computed = checksum_of(&snapshot);
    if stored != computed {
        return Err(format!(
            "checksum mismatch: header {stored:#x}, records {computed:#x}"
        ));
    }
    Ok(snapshot)
}

/// Writes a snapshot to `path` in the requested format.
pub fn save_snapshot(
    path: &Path,
    snapshot: &Snapshot,
    format: SnapshotFormat,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    match format {
        SnapshotFormat::Binary => std::fs::write(path, snapshot.to_bytes()),
        SnapshotFormat::Jsonl => std::fs::write(path, snapshot_to_jsonl(snapshot)),
    }
}

/// Reads a snapshot from `path`, sniffing the format: files opening with
/// the `ASIS` magic decode through the binary codec, anything else is
/// parsed as JSONL.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if bytes.starts_with(&asi_state::SNAPSHOT_MAGIC) {
        return Snapshot::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()));
    }
    let text =
        String::from_utf8(bytes).map_err(|e| format!("{}: not UTF-8: {e}", path.display()))?;
    snapshot_from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut pool = TurnPool::new_spec();
        pool.push_turn(3, 5).unwrap();
        let mut s = Snapshot::new(0xA51_0000_0001);
        s.devices.push(DeviceRecord {
            info: DeviceInfo {
                device_type: DeviceType::Endpoint,
                dsn: 0xA51_0000_0001,
                port_count: 1,
                max_packet_size: 2048,
                fm_capable: true,
                fm_priority: 7,
            },
            route: DeviceRoute {
                egress: 0,
                entry_port: 0,
                hops: 0,
                pool: TurnPool::new_spec(),
            }
            .into(),
            ports: vec![Some(PortInfo {
                state: PortState::Active,
                link_width: 1,
                link_speed: 10,
                peer_port: 4,
            })]
            .into(),
        });
        s.devices.push(DeviceRecord {
            info: DeviceInfo {
                device_type: DeviceType::Switch,
                dsn: 0xA51_0000_0002,
                port_count: 3,
                max_packet_size: 2048,
                fm_capable: false,
                fm_priority: 0,
            },
            route: DeviceRoute {
                egress: 0,
                entry_port: 4,
                hops: 1,
                pool,
            }
            .into(),
            ports: vec![
                Some(PortInfo {
                    state: PortState::Active,
                    link_width: 1,
                    link_speed: 10,
                    peer_port: 0,
                }),
                None,
                Some(PortInfo {
                    state: PortState::Down,
                    link_width: 0,
                    link_speed: 0,
                    peer_port: 0,
                }),
            ]
            .into(),
        });
        s.links.push((0xA51_0000_0001, 0, 0xA51_0000_0002, 4));
        s.canonicalize();
        s
    }

    #[test]
    fn jsonl_round_trips() {
        let s = sample();
        let text = snapshot_to_jsonl(&s);
        assert_eq!(text.lines().count(), 1 + 2 + 1);
        let back = snapshot_from_jsonl(&text).unwrap();
        assert_eq!(back, s);
        // JSONL and binary agree byte-for-byte after a round trip.
        assert_eq!(back.to_bytes(), s.to_bytes());
    }

    #[test]
    fn jsonl_header_checksum_matches_binary_codec() {
        let s = sample();
        let text = snapshot_to_jsonl(&s);
        let header = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            header.get("checksum").as_str().unwrap(),
            format!("{:#x}", checksum_of(&s))
        );
    }

    #[test]
    fn jsonl_rejects_tampering() {
        let s = sample();
        let text = snapshot_to_jsonl(&s);
        // Drop a device line: counts no longer match the header.
        let truncated: Vec<&str> = text.lines().take(2).chain(text.lines().skip(3)).collect();
        let err = snapshot_from_jsonl(&truncated.join("\n")).unwrap_err();
        assert!(err.contains("counts"), "{err}");
        // Flip a port count: checksum catches it.
        let edited = text.replacen("\"port_count\":3", "\"port_count\":2", 1);
        let err = snapshot_from_jsonl(&edited).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        assert!(snapshot_from_jsonl("").is_err());
        assert!(snapshot_from_jsonl("{\"kind\":\"device\"}").is_err());
    }

    #[test]
    fn save_and_load_sniff_both_formats() {
        let dir = std::env::temp_dir().join("asi-harness-snapshot-test");
        let s = sample();
        let bin = dir.join("fabric.snap");
        let jsonl = dir.join("fabric.jsonl");
        save_snapshot(&bin, &s, SnapshotFormat::Binary).unwrap();
        save_snapshot(&jsonl, &s, SnapshotFormat::Jsonl).unwrap();
        assert_eq!(load_snapshot(&bin).unwrap(), s);
        assert_eq!(load_snapshot(&jsonl).unwrap(), s);
        // save → load → re-save is byte-identical in both formats.
        let reloaded = load_snapshot(&bin).unwrap();
        assert_eq!(std::fs::read(&bin).unwrap(), reloaded.to_bytes());
        assert_eq!(
            std::fs::read_to_string(&jsonl).unwrap(),
            snapshot_to_jsonl(&load_snapshot(&jsonl).unwrap())
        );
        assert!(load_snapshot(&dir.join("missing.snap")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_u64s_survive_the_json_path() {
        let mut s = sample();
        s.host_dsn = u64::MAX;
        s.devices[0].info.dsn = u64::MAX;
        s.links[0].0 = u64::MAX;
        s.canonicalize();
        let back = snapshot_from_jsonl(&snapshot_to_jsonl(&s)).unwrap();
        assert_eq!(back.host_dsn, u64::MAX);
        assert_eq!(back, s);
    }

    /// Reading never panics: a discovered snapshot's JSONL, cut short or
    /// with one line dropped, duplicated, swapped with the next or with
    /// one byte replaced. Whatever reads back must read back from its own
    /// rendering.
    mod properties {
        use super::*;
        use crate::scenario::{Bench, Scenario};
        use asi_core::{snapshot_db, Algorithm};
        use proptest::prelude::*;

        /// Bytes a mutation writes: JSON syntax, digits and hex.
        const SPICE: &[u8] = b"{}[]:,\"-.0123456789aefx ";

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn spoiled_jsonl_never_panics(
                how in 0u8..5,
                line in any::<prop::sample::Index>(),
                at in any::<prop::sample::Index>(),
                byte in any::<prop::sample::Index>(),
            ) {
                let topo = asi_topo::mesh(2, 2).unwrap().topology;
                let bench = Bench::start(&topo, &Scenario::new(Algorithm::Parallel), &[]);
                let text = snapshot_to_jsonl(&snapshot_db(bench.db()));
                let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
                let (n, i) = (lines.len(), line.index(lines.len()));
                match how {
                    0 => lines = vec![text[..at.index(text.len() + 1)].to_owned()],
                    1 => drop(lines.remove(i)),
                    2 => lines.insert(i, lines[i].clone()),
                    3 => lines.swap(i, (i + 1) % n),
                    _ => {
                        let mut bytes = std::mem::take(&mut lines[i]).into_bytes();
                        let j = at.index(bytes.len());
                        bytes[j] = *byte.get(SPICE);
                        lines[i] = String::from_utf8(bytes).expect("ASCII");
                    }
                }
                if let Ok(read) = snapshot_from_jsonl(&lines.join("\n")) {
                    prop_assert_eq!(snapshot_from_jsonl(&snapshot_to_jsonl(&read)), Ok(read));
                }
            }
        }
    }
}
