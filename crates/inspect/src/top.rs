//! `inspect top`: a live terminal view of a running tsgemm job.
//!
//! Polls the telemetry endpoint's `/snapshot.json` and renders the
//! operator's questions directly: which rank is the straggler (deepest
//! collective queue / fewest steps), what phase each rank is in, how fast
//! bytes are moving, what the local/remote mode split looks like, and a
//! rank×rank comm-matrix heatmap in Unicode shade blocks.
//!
//! HTTP is a hand-rolled `GET` over `std::net::TcpStream` — same
//! zero-dependency rule as the rest of this crate.

use crate::{Json, JsonError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Fetches `path` from `addr` (a `host:port` string) and returns the
/// response body. Fails on non-200 status.
pub fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut resp = String::new();
    stream
        .read_to_string(&mut resp)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let (head, body) = resp
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{addr}{path}: {status}"));
    }
    Ok(body.to_string())
}

/// Fetches and parses `/snapshot.json`.
pub fn fetch_snapshot(addr: &str) -> Result<Json, String> {
    let body = http_get(addr, "/snapshot.json")?;
    crate::parse(&body).map_err(|e: JsonError| format!("{addr}/snapshot.json: {e}"))
}

fn f(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

fn fu(v: Option<&Json>) -> u64 {
    f(v) as u64
}

/// Human byte formatting (binary prefixes).
pub fn fmt_bytes(b: f64) -> String {
    const UNITS: &[&str] = &["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{v:.0}{}", UNITS[u])
    } else {
        format!("{v:.1}{}", UNITS[u])
    }
}

/// Shade character for `v` relative to `max` (5 levels).
fn shade(v: u64, max: u64) -> char {
    if v == 0 {
        '·'
    } else {
        let frac = v as f64 / max.max(1) as f64;
        match (frac * 4.0).ceil() as u32 {
            0 | 1 => '░',
            2 => '▒',
            3 => '▓',
            _ => '█',
        }
    }
}

/// Renders a snapshot document as the `top` screen. Pure (testable) —
/// the binary wraps it in the poll/clear loop.
pub fn render(snap: &Json) -> String {
    let mut out = String::new();
    let p = fu(snap.get("p")) as usize;
    let running = matches!(snap.get("running"), Some(Json::Bool(true)));
    out.push_str(&format!(
        "tsgemm top — run #{} [{}]  ranks: {}  up {:.1}s  ticks: {}\n",
        fu(snap.get("run_id")),
        if running { "running" } else { "finished" },
        p,
        f(snap.get("uptime_secs")),
        fu(snap.get("ticks")),
    ));
    let mem = snap.get("mem");
    out.push_str(&format!(
        "total sent: {}  rate: {}/s  mem live/peak: {}/{}\n\n",
        fmt_bytes(f(snap.get("bytes_sent_total"))),
        fmt_bytes(f(snap.get("send_rate_bps"))),
        fmt_bytes(f(mem.and_then(|m| m.get("live_bytes")))),
        fmt_bytes(f(mem.and_then(|m| m.get("peak_bytes")))),
    ));

    // ---- per-rank table -------------------------------------------------
    let empty = Vec::new();
    let ranks = snap.get("ranks").and_then(Json::as_arr).unwrap_or(&empty);
    out.push_str(&format!(
        "{:>4} {:<22} {:>5} {:>7} {:>10} {:>10} {:>11} {:>11}\n",
        "rank", "phase", "queue", "steps", "sent", "recv", "rate", "local/rem"
    ));
    // Straggler = deepest queue, then fewest completed steps.
    let straggler = ranks
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| (fu(r.get("queue_depth")), u64::MAX - fu(r.get("steps_done"))))
        .map(|(i, _)| i);
    for (i, r) in ranks.iter().enumerate() {
        let mark = if Some(i) == straggler && ranks.len() > 1 {
            '*'
        } else {
            ' '
        };
        out.push_str(&format!(
            "{mark}{:>3} {:<22} {:>5} {:>7} {:>10} {:>10} {:>9}/s {:>5}/{:<5}\n",
            fu(r.get("rank")),
            r.get("phase").and_then(Json::as_str).unwrap_or("-"),
            fu(r.get("queue_depth")),
            fu(r.get("steps_done")),
            fmt_bytes(f(r.get("bytes_sent"))),
            fmt_bytes(f(r.get("bytes_recv"))),
            fmt_bytes(f(r.get("send_rate_bps"))),
            fu(r.get("modes_local")),
            fu(r.get("modes_remote")),
        ));
    }
    if ranks.len() > 1 {
        out.push_str("(* = straggler: deepest collective queue)\n");
    }

    // ---- comm-matrix heatmap -------------------------------------------
    let slices = snap.get("matrix").and_then(Json::as_arr).unwrap_or(&empty);
    if p > 0 && !slices.is_empty() {
        let mut cells = vec![0u64; p * p];
        let mut local = 0u64;
        let mut remote = 0u64;
        for s in slices {
            let total: u64 = s
                .get("cells")
                .and_then(Json::as_arr)
                .map(|a| a.iter().map(|v| v.as_f64().unwrap_or(0.0) as u64).sum())
                .unwrap_or(0);
            match s.get("mode").and_then(Json::as_str) {
                Some("local") => local += total,
                Some("remote") => remote += total,
                _ => {}
            }
            if let Some(a) = s.get("cells").and_then(Json::as_arr) {
                for (c, v) in cells.iter_mut().zip(a) {
                    *c += v.as_f64().unwrap_or(0.0) as u64;
                }
            }
        }
        let max = cells.iter().copied().max().unwrap_or(0);
        out.push_str(&format!(
            "\ncomm matrix (src ↓ dst →), bytes; mode split local {} / remote {}\n",
            fmt_bytes(local as f64),
            fmt_bytes(remote as f64)
        ));
        // Cap the rendered matrix so huge p stays readable.
        let shown = p.min(32);
        out.push_str("     ");
        for d in 0..shown {
            out.push_str(&format!("{:>2}", d % 100));
        }
        if shown < p {
            out.push_str(" …");
        }
        out.push('\n');
        for src in 0..shown {
            out.push_str(&format!("{src:>4} "));
            for dst in 0..shown {
                out.push(' ');
                out.push(shade(cells[src * p + dst], max));
            }
            if shown < p {
                out.push_str(" …");
            }
            let row_sum: u64 = (0..p).map(|d| cells[src * p + d]).sum();
            out.push_str(&format!("  {}\n", fmt_bytes(row_sum as f64)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Json {
        crate::parse(
            r#"{"p":2,"run_id":3,"running":true,"uptime_secs":1.5,
                "ticks":100,
                "mem":{"live_bytes":1048576,"peak_bytes":2097152},
                "bytes_sent_total":4096,"send_rate_bps":2048.0,
                "ranks":[
                  {"rank":0,"phase":"ts:bfetch","queue_depth":0,"steps_done":4,
                   "bytes_sent":2048,"bytes_recv":2048,"send_rate_bps":1024.0,
                   "modes_local":3,"modes_remote":1},
                  {"rank":1,"phase":"ts:cret","queue_depth":2,"steps_done":1,
                   "bytes_sent":2048,"bytes_recv":2048,"send_rate_bps":1024.0,
                   "modes_local":1,"modes_remote":3}],
                "matrix":[
                  {"kind":"AllToAllV","mode":"local","p":2,"cells":[0,96,32,0]},
                  {"kind":"AllToAllV","mode":"remote","p":2,"cells":[0,16,8,0]}],
                "folded":{}}"#,
        )
        .unwrap()
    }

    #[test]
    fn renders_header_ranks_and_matrix() {
        let text = render(&sample_doc());
        assert!(text.contains("run #3 [running]"));
        assert!(text.contains("ts:bfetch"));
        assert!(text.contains("ts:cret"));
        // Rank 1 has the deepest queue → straggler mark on its row.
        let line = text.lines().find(|l| l.contains("ts:cret")).unwrap();
        assert!(line.starts_with('*'), "{line}");
        assert!(text.contains("comm matrix"));
        assert!(text.contains("local"));
        // 1 MiB live memory formatted with binary prefix.
        assert!(text.contains("1.0MiB"));
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(0.0), "0B");
        assert_eq!(fmt_bytes(1023.0), "1023B");
        assert_eq!(fmt_bytes(1024.0), "1.0KiB");
        assert_eq!(fmt_bytes(1536.0), "1.5KiB");
        assert_eq!(fmt_bytes(3.0 * 1024.0 * 1024.0), "3.0MiB");
    }

    #[test]
    fn shade_levels_cover_range() {
        assert_eq!(shade(0, 100), '·');
        assert_eq!(shade(1, 100), '░');
        assert_eq!(shade(50, 100), '▒');
        assert_eq!(shade(100, 100), '█');
    }

    #[test]
    fn render_survives_empty_document() {
        let doc = crate::parse(r#"{"p":0,"ranks":[],"matrix":[]}"#).unwrap();
        let text = render(&doc);
        assert!(text.contains("ranks: 0"));
    }
}
