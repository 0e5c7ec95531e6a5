//! Block-trace parsing and replay.
//!
//! The format is a minimal CSV any real trace (MSR Cambridge, FIU, …) can
//! be converted to:
//!
//! ```text
//! # comment lines and blank lines are ignored
//! W,128          # write LPN 128
//! R,128          # read LPN 128
//! T,128          # trim LPN 128
//! W,4096,8       # optional third column: run length in pages
//! W,4096,8,2     # optional fourth column: tenant id (defaults to 0)
//! ```

use crate::request::{IoOp, IoRequest};
use std::fmt;
use std::io::BufRead;

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        reason: String,
    },
    /// The underlying reader failed.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Malformed { line, reason } => {
                write!(f, "trace line {line}: {reason}")
            }
            TraceError::Io(e) => write!(f, "trace read failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// One parsed trace request together with the tenant that issued it
/// (the optional fourth trace column; tenant 0 when absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TracedRequest {
    /// Issuing tenant (submission-queue index of a multi-queue frontend).
    pub tenant: u32,
    /// The request itself.
    pub request: IoRequest,
}

/// Parses a trace from any reader (a `&[u8]` literal works for tests; pass
/// a `BufReader<File>` for real traces), discarding tenant ids.
///
/// ```
/// use ftl::trace::parse_trace;
///
/// let requests = parse_trace(b"W,10\nR,10\nW,20,2\n" as &[u8])?;
/// assert_eq!(requests.len(), 4);
/// # Ok::<(), ftl::trace::TraceError>(())
/// ```
///
/// # Errors
///
/// Returns [`TraceError`] on the first malformed line or I/O failure.
pub fn parse_trace<R: BufRead>(reader: R) -> Result<Vec<IoRequest>, TraceError> {
    Ok(parse_trace_tenants(reader)?.into_iter().map(|t| t.request).collect())
}

/// Parses a trace keeping the per-line tenant id (fourth column, default
/// tenant 0) so multi-queue frontends can route each request to its
/// submission queue.
///
/// ```
/// use ftl::trace::parse_trace_tenants;
///
/// let reqs = parse_trace_tenants(b"W,10\nW,20,2,3\n" as &[u8])?;
/// assert_eq!(reqs[0].tenant, 0, "tenant defaults to 0");
/// assert_eq!(reqs[1].tenant, 3);
/// assert_eq!(reqs[2].tenant, 3, "every page of a run keeps the tenant");
/// # Ok::<(), ftl::trace::TraceError>(())
/// ```
///
/// # Errors
///
/// Returns [`TraceError`] on the first malformed line or I/O failure.
pub fn parse_trace_tenants<R: BufRead>(reader: R) -> Result<Vec<TracedRequest>, TraceError> {
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| TraceError::Io(e.to_string()))?;
        let bad = |reason: String| TraceError::Malformed { line: idx + 1, reason };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split(',').map(str::trim);
        let op = match parts.next() {
            Some("W") | Some("w") => IoOp::Write,
            Some("R") | Some("r") => IoOp::Read,
            Some("T") | Some("t") => IoOp::Trim,
            Some(other) => return Err(bad(format!("unknown op {other:?} (expected W/R/T)"))),
            None => unreachable!("split always yields one item"),
        };
        let lpn: u64 = parts
            .next()
            .ok_or_else(|| bad("missing LPN column".to_string()))?
            .parse()
            .map_err(|e| bad(format!("bad LPN: {e}")))?;
        let len: u64 = match parts.next() {
            None | Some("") => 1,
            Some(n) => n.parse().map_err(|e| bad(format!("bad length: {e}")))?,
        };
        if len == 0 {
            return Err(bad("length must be at least 1".to_string()));
        }
        if lpn.checked_add(len - 1).is_none() {
            return Err(bad(format!("run {lpn}+{len} overflows the LPN space")));
        }
        let tenant: u32 = match parts.next() {
            None | Some("") => 0,
            Some(n) => n.parse().map_err(|e| bad(format!("bad tenant id: {e}")))?,
        };
        if parts.next().is_some() {
            return Err(bad("too many columns (expected op,lpn[,len[,tenant]])".to_string()));
        }
        for i in 0..len {
            out.push(TracedRequest { tenant, request: IoRequest { op, lpn: lpn + i } });
        }
    }
    Ok(out)
}

/// Folds trace LPNs into a device's logical capacity (`lpn % capacity`),
/// preserving access structure while guaranteeing replayability.
///
/// # Panics
///
/// Panics if `capacity` is zero.
#[must_use]
pub fn fold_to_capacity(requests: &[IoRequest], capacity: u64) -> Vec<IoRequest> {
    assert!(capacity > 0, "capacity must be positive");
    requests.iter().map(|r| IoRequest { op: r.op, lpn: r.lpn % capacity }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ops_comments_and_runs() {
        let trace = b"# header\nW,10\nR,10\n\nT,10\nW,20,3\n" as &[u8];
        let reqs = parse_trace(trace).unwrap();
        assert_eq!(reqs.len(), 6);
        assert_eq!(reqs[0], IoRequest::write(10));
        assert_eq!(reqs[1], IoRequest::read(10));
        assert_eq!(reqs[2], IoRequest::trim(10));
        assert_eq!(reqs[3], IoRequest::write(20));
        assert_eq!(reqs[5], IoRequest::write(22));
    }

    #[test]
    fn rejects_unknown_op() {
        let err = parse_trace(b"X,1\n" as &[u8]).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { line: 1, .. }));
    }

    #[test]
    fn rejects_missing_lpn() {
        let err = parse_trace(b"W\n" as &[u8]).unwrap_err();
        assert!(err.to_string().contains("missing LPN"));
    }

    #[test]
    fn rejects_zero_length() {
        let err = parse_trace(b"W,5,0\n" as &[u8]).unwrap_err();
        assert!(err.to_string().contains("length"));
    }

    #[test]
    fn rejects_run_overflowing_lpn_space() {
        // lpn + len - 1 must stay in u64: this run wraps around.
        let line = format!("W,{},3\n", u64::MAX - 1);
        let err = parse_trace(line.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { line: 1, .. }));
        assert!(err.to_string().contains("overflows"));
        // The largest legal run is accepted.
        let line = format!("W,{},2\n", u64::MAX - 1);
        let reqs = parse_trace(line.as_bytes()).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].lpn, u64::MAX);
    }

    #[test]
    fn tenant_column_defaults_to_zero_and_parses() {
        let trace = b"W,10\nR,11,1,0\nW,20,2,7\nT,30,,\n" as &[u8];
        let reqs = parse_trace_tenants(trace).unwrap();
        assert_eq!(reqs.len(), 5);
        assert_eq!(reqs[0], TracedRequest { tenant: 0, request: IoRequest::write(10) });
        assert_eq!(reqs[1], TracedRequest { tenant: 0, request: IoRequest::read(11) });
        assert_eq!(reqs[2], TracedRequest { tenant: 7, request: IoRequest::write(20) });
        assert_eq!(reqs[3], TracedRequest { tenant: 7, request: IoRequest::write(21) });
        // Empty len and tenant columns fall back to the defaults.
        assert_eq!(reqs[4], TracedRequest { tenant: 0, request: IoRequest::trim(30) });
        // The tenant-blind entry point agrees, minus the tenant ids.
        let blind = parse_trace(trace).unwrap();
        let stripped: Vec<IoRequest> = reqs.iter().map(|t| t.request).collect();
        assert_eq!(blind, stripped);
    }

    #[test]
    fn rejects_bad_tenant_id() {
        let err = parse_trace_tenants(b"W,5,1,alice\n" as &[u8]).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { line: 1, .. }));
        assert!(err.to_string().contains("bad tenant id"));
        // Negative and overflowing ids are rejected by the u32 parse too.
        let err = parse_trace_tenants(b"W,5,1,-2\n" as &[u8]).unwrap_err();
        assert!(err.to_string().contains("bad tenant id"));
        let err = parse_trace_tenants(b"W,5,1,4294967296\n" as &[u8]).unwrap_err();
        assert!(err.to_string().contains("bad tenant id"));
        // The tenant-blind entry point rejects the same lines: a malformed
        // column is an error, not silently dropped data.
        assert!(parse_trace(b"W,5,1,alice\n" as &[u8]).is_err());
    }

    #[test]
    fn rejects_too_many_columns() {
        let err = parse_trace_tenants(b"W,5,1,0,9\n" as &[u8]).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { line: 1, .. }));
        assert!(err.to_string().contains("too many columns"));
    }

    #[test]
    fn reports_correct_line_numbers() {
        let err = parse_trace(b"W,1\n# ok\nbogus,2\n" as &[u8]).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { line: 3, .. }));
    }

    #[test]
    fn fold_wraps_lpns() {
        let reqs = vec![IoRequest::write(105), IoRequest::read(7)];
        let folded = fold_to_capacity(&reqs, 100);
        assert_eq!(folded[0].lpn, 5);
        assert_eq!(folded[1].lpn, 7);
    }

    #[test]
    fn replay_on_device_works() {
        use crate::{FtlConfig, Ssd};
        let mut dev = Ssd::new(FtlConfig::small_test(), 1).unwrap();
        let trace = b"W,3\nW,4\nR,3\nT,4\n" as &[u8];
        let reqs =
            fold_to_capacity(&parse_trace(trace).unwrap(), dev.geometry_info().logical_pages);
        dev.run(&reqs).unwrap();
        assert_eq!(dev.stats().host_writes, 2);
        assert_eq!(dev.stats().host_reads, 1);
        assert_eq!(dev.stats().host_trims, 1);
    }
}
