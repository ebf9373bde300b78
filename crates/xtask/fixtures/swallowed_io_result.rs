//! Discarded std `io::Result`s: `let _ =` on a socket or write method is
//! flagged like one on a workspace Result fn; a suppressed discard, a
//! propagated call and a discarded non-Result call are clean.
use std::io::Write;
use std::net::TcpStream;

pub fn reply(mut stream: TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    let _ = stream.write_all(bytes);
    let _ = stream.set_nonblocking(false);
    // tecopt:allow(swallowed-result) — best effort on a closing stream.
    let _ = stream.flush();
    stream.set_read_timeout(None)?;
    let _ = bytes.len();
    Ok(())
}
