//! SPC-format trace I/O.
//!
//! The UMass Trace Repository distributes the WebSearch and FinTrans traces
//! in the Storage Performance Council format: one CSV record per request,
//!
//! ```text
//! ASU,LBA,Size,Opcode,Timestamp
//! 0,47126,8192,R,0.011413
//! ```
//!
//! where `ASU` is the application storage unit, `LBA` the logical block
//! address, `Size` the transfer size in bytes, `Opcode` `R`/`W` (case
//! insensitive), and `Timestamp` the arrival time in seconds. This module
//! reads and writes that format so the paper's original traces can be used
//! verbatim in place of the synthetic profiles.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::request::{LogicalBlock, Request, RequestKind};
use crate::time::SimTime;
use crate::workload::Workload;

/// An error produced while parsing an SPC trace.
#[derive(Debug)]
pub enum ParseSpcError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed record, with its 1-based line and field position and a
    /// description.
    Malformed {
        /// 1-based line number of the offending record.
        line: usize,
        /// 1-based comma-separated field index the error was detected in.
        column: usize,
        /// What was wrong with the record.
        reason: String,
    },
}

impl fmt::Display for ParseSpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpcError::Io(e) => write!(f, "i/o error reading SPC trace: {e}"),
            ParseSpcError::Malformed {
                line,
                column,
                reason,
            } => {
                write!(
                    f,
                    "malformed SPC record at line {line}, field {column}: {reason}"
                )
            }
        }
    }
}

impl Error for ParseSpcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseSpcError::Io(e) => Some(e),
            ParseSpcError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ParseSpcError {
    fn from(e: io::Error) -> Self {
        ParseSpcError::Io(e)
    }
}

/// An incremental SPC record reader: an iterator yielding one parsed
/// [`Request`] per trace record, without materialising the whole file.
///
/// This is the streaming counterpart of [`read_trace`] (which is built on
/// it): blank lines and `#` comments are skipped, and each record goes
/// through the same hardened record parser, so the two agree on
/// every accept/reject decision. Requests are yielded in **file order**
/// with default ids; callers that need a sorted, densely-identified stream
/// (the contract of a `Workload`) must sort and assign ids themselves —
/// `read_trace` does so globally, the chunked `gqos-stream` adapter per
/// chunk.
///
/// # Examples
///
/// ```
/// use gqos_trace::spc::Records;
///
/// let trace = "# header\n0,47126,8192,R,0.011413\n0,47134,8192,W,0.024\n";
/// let mut records = Records::new(trace.as_bytes());
/// assert!(records.next().unwrap().is_ok());
/// assert!(records.next().unwrap().is_ok());
/// assert!(records.next().is_none());
/// ```
#[derive(Debug)]
pub struct Records<R: Read> {
    lines: io::Lines<BufReader<R>>,
    line_no: usize,
}

impl<R: Read> Records<R> {
    /// Creates a reader over `reader`. A `&mut` reference may be passed.
    pub fn new(reader: R) -> Self {
        Records {
            lines: BufReader::new(reader).lines(),
            line_no: 0,
        }
    }

    /// The 1-based line number of the most recently yielded record (0
    /// before the first), for error reporting by callers.
    pub fn line_number(&self) -> usize {
        self.line_no
    }
}

impl<R: Read> Iterator for Records<R> {
    type Item = Result<Request, ParseSpcError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => return Some(Err(ParseSpcError::Io(e))),
            };
            self.line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return Some(parse_record(trimmed, self.line_no));
        }
    }
}

/// Reads an SPC-format trace into a [`Workload`].
///
/// A `&mut` reference may be passed for `reader`. Blank lines and lines
/// beginning with `#` are skipped. Records with more than five fields keep
/// only the first five (some repository variants append extras).
/// Out-of-order timestamps are sorted globally; for a bounded-memory
/// incremental read, use [`Records`] directly.
///
/// # Errors
///
/// Returns [`ParseSpcError`] on I/O failure or the first malformed record.
///
/// # Examples
///
/// ```
/// use gqos_trace::spc;
///
/// let trace = "0,47126,8192,R,0.011413\n0,47134,8192,W,0.024\n";
/// let w = spc::read_trace(trace.as_bytes())?;
/// assert_eq!(w.len(), 2);
/// # Ok::<(), gqos_trace::spc::ParseSpcError>(())
/// ```
pub fn read_trace<R: Read>(reader: R) -> Result<Workload, ParseSpcError> {
    let requests = Records::new(reader).collect::<Result<Vec<_>, _>>()?;
    Ok(Workload::from_requests(requests))
}

/// The largest timestamp (in seconds) the nanosecond simulation clock can
/// represent; anything larger in a trace is a corrupt record, not a valid
/// 580-year experiment.
const MAX_TIMESTAMP_SECS: f64 = (u64::MAX / 1_000_000_000) as f64;

fn parse_record(record: &str, line: usize) -> Result<Request, ParseSpcError> {
    let malformed = |column: usize, reason: String| ParseSpcError::Malformed {
        line,
        column,
        reason,
    };
    let fields: Vec<&str> = record.split(',').map(str::trim).collect();
    let field = |column: usize, name: &str| {
        fields
            .get(column - 1)
            .copied()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| malformed(column, format!("missing field `{name}`")))
    };

    let _asu = field(1, "asu")?;
    let lba: u64 = field(2, "lba")?
        .parse()
        .map_err(|e| malformed(2, format!("bad LBA: {e}")))?;
    let size: u32 = field(3, "size")?
        .parse()
        .map_err(|e| malformed(3, format!("bad size: {e}")))?;
    let opcode = field(4, "opcode")?;
    let kind = match opcode {
        "R" | "r" => RequestKind::Read,
        "W" | "w" => RequestKind::Write,
        other => return Err(malformed(4, format!("bad opcode `{other}`"))),
    };
    let ts: f64 = field(5, "timestamp")?
        .parse()
        .map_err(|e| malformed(5, format!("bad timestamp: {e}")))?;
    if !ts.is_finite() || ts < 0.0 {
        return Err(malformed(
            5,
            format!("negative or non-finite timestamp {ts}"),
        ));
    }
    // Pre-empt the SimTime constructor's panic on unrepresentable instants.
    if ts > MAX_TIMESTAMP_SECS {
        return Err(malformed(
            5,
            format!("timestamp {ts} overflows the nanosecond clock"),
        ));
    }

    Ok(Request::at(SimTime::from_secs_f64(ts))
        .with_block(LogicalBlock::new(lba))
        .with_bytes(size)
        .with_kind(kind))
}

/// Writes `workload` in SPC format. All requests are emitted under ASU 0.
///
/// A `&mut` reference may be passed for `writer`.
///
/// # Errors
///
/// Returns any underlying I/O error.
///
/// # Examples
///
/// ```
/// use gqos_trace::{spc, SimTime, Workload};
///
/// let w = Workload::from_arrivals([SimTime::from_millis(5)]);
/// let mut out = Vec::new();
/// spc::write_trace(&w, &mut out)?;
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.starts_with("0,"));
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_trace<W: Write>(workload: &Workload, mut writer: W) -> io::Result<()> {
    for r in workload.iter() {
        let op = match r.kind {
            RequestKind::Read => 'R',
            RequestKind::Write => 'W',
        };
        writeln!(
            writer,
            "0,{},{},{},{:.6}",
            r.block.get(),
            r.bytes,
            op,
            r.arrival.as_secs_f64()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn parses_canonical_records() {
        let trace = "0,47126,8192,R,0.011413\n1,100,4096,w,1.5\n";
        let w = read_trace(trace.as_bytes()).expect("valid trace");
        assert_eq!(w.len(), 2);
        let r0 = &w.requests()[0];
        assert_eq!(r0.block, LogicalBlock::new(47126));
        assert_eq!(r0.bytes, 8192);
        assert_eq!(r0.kind, RequestKind::Read);
        assert_eq!(r0.arrival, SimTime::from_secs_f64(0.011413));
        assert_eq!(w.requests()[1].kind, RequestKind::Write);
    }

    #[test]
    fn skips_blank_lines_and_comments() {
        let trace = "# header comment\n\n0,1,512,R,0.0\n   \n0,2,512,R,1.0\n";
        let w = read_trace(trace.as_bytes()).expect("valid trace");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn tolerates_extra_fields_and_whitespace() {
        let trace = "0, 10, 8192 , R , 2.0, extra, fields\n";
        let w = read_trace(trace.as_bytes()).expect("valid trace");
        assert_eq!(w.len(), 1);
        assert_eq!(w.requests()[0].arrival, SimTime::from_secs(2));
    }

    #[test]
    fn sorts_out_of_order_timestamps() {
        let trace = "0,1,512,R,5.0\n0,2,512,R,1.0\n";
        let w = read_trace(trace.as_bytes()).expect("valid trace");
        assert_eq!(w.first_arrival(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn rejects_bad_opcode_with_line_and_column() {
        let trace = "0,1,512,R,0.0\n0,1,512,X,1.0\n";
        let err = read_trace(trace.as_bytes()).unwrap_err();
        match err {
            ParseSpcError::Malformed {
                line,
                column,
                ref reason,
            } => {
                assert_eq!(line, 2);
                assert_eq!(column, 4);
                assert!(reason.contains("opcode"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(err.to_string().contains("line 2, field 4"));
    }

    #[test]
    fn rejects_unrepresentable_timestamp_instead_of_panicking() {
        // Finite but beyond what the nanosecond u64 clock can hold: must be
        // a parse error, not an assertion failure inside SimTime.
        let err = read_trace("0,1,512,R,1e300\n".as_bytes()).unwrap_err();
        match err {
            ParseSpcError::Malformed {
                column, ref reason, ..
            } => {
                assert_eq!(column, 5);
                assert!(reason.contains("overflows"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_nan_timestamp() {
        let err = read_trace("0,1,512,R,NaN\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("timestamp"), "{err}");
    }

    #[test]
    fn rejects_missing_fields() {
        let err = read_trace("0,1,512\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn rejects_negative_timestamp() {
        let err = read_trace("0,1,512,R,-3\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("timestamp"));
    }

    #[test]
    fn rejects_unparsable_numbers() {
        assert!(read_trace("0,abc,512,R,0\n".as_bytes()).is_err());
        assert!(read_trace("0,1,xyz,R,0\n".as_bytes()).is_err());
        assert!(read_trace("0,1,512,R,zzz\n".as_bytes()).is_err());
    }

    #[test]
    fn round_trip_preserves_workload() {
        let original = read_trace("0,5,4096,W,0.25\n0,9,8192,R,1.75\n".as_bytes()).unwrap();
        let mut bytes = Vec::new();
        write_trace(&original, &mut bytes).unwrap();
        let reparsed = read_trace(bytes.as_slice()).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn incremental_reader_agrees_with_read_trace() {
        let trace = "# hdr\n0,5,4096,W,0.25\n\n0,9,8192,R,0.10\n0,1,512,r,0.50\n";
        let streamed: Vec<Request> = Records::new(trace.as_bytes())
            .collect::<Result<_, _>>()
            .expect("valid trace");
        // File order, default ids.
        assert_eq!(streamed.len(), 3);
        assert_eq!(streamed[0].arrival, SimTime::from_secs_f64(0.25));
        assert_eq!(streamed[1].arrival, SimTime::from_secs_f64(0.10));
        // read_trace = Records + global sort + dense ids.
        let whole = read_trace(trace.as_bytes()).expect("valid trace");
        let mut sorted = streamed.clone();
        sorted.sort_by_key(|r| r.arrival);
        let resorted: Vec<Request> = sorted
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.with_id(crate::request::RequestId::new(i as u64)))
            .collect();
        assert_eq!(whole.requests(), resorted.as_slice());
    }

    #[test]
    fn incremental_reader_reports_error_line() {
        let mut records = Records::new("0,1,512,R,0.0\n0,1,512,X,1.0\n".as_bytes());
        assert!(records.next().unwrap().is_ok());
        assert_eq!(records.line_number(), 1);
        let err = records.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn empty_input_is_empty_workload() {
        let w = read_trace("".as_bytes()).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.span(), SimDuration::ZERO);
    }

    #[test]
    fn error_source_chain() {
        let err = read_trace("0,1,512,R,bad\n".as_bytes()).unwrap_err();
        assert!(err.source().is_none());
        let io_err = ParseSpcError::from(io::Error::other("boom"));
        assert!(io_err.source().is_some());
    }
}
