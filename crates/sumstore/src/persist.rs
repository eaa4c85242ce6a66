//! On-disk persistence: a versioned little-endian binary format.
//!
//! Layout of `summaries.bin`:
//!
//! ```text
//! magic   b"GSUM"
//! version u32 = 1
//! count   u64
//! entries sorted ascending by key:
//!   key     u128
//!   summary (four u32-count-prefixed vectors; strings are u32-len +
//!            UTF-8 bytes; tokens are a u8 tag: 0=Formal+u8,
//!            1=Fresh, 2=StaticIn+field; a field is class + name)
//!   slots, insts, nodes   u32 each
//!   words   u64 count + count × u64
//! checksum u64 — FNV-1a over everything before it
//! ```
//!
//! Entries are written in sorted key order so identical stores encode
//! to identical bytes. Decoding validates the magic, the version, the
//! checksum, and every length field against the remaining input, and
//! reports any mismatch as [`std::io::ErrorKind::InvalidData`].

use std::collections::HashMap;
use std::io;

use crate::reloc::{RelocField, RelocSummary, RelocToken};
use crate::store::StoredMethod;

/// File name under the store directory.
pub const STORE_FILE: &str = "summaries.bin";

/// Temporary file a save writes before renaming it over [`STORE_FILE`].
/// Loading never reads it, so a save torn by a crash leaves the previous
/// store intact.
pub const STORE_TMP_FILE: &str = "summaries.bin.tmp";

const MAGIC: &[u8; 4] = b"GSUM";
const VERSION: u32 = 1;

// 64-bit FNV-1a, kept local: this crate deliberately has no dependency
// on the serving layer's hashing helpers.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// Encodes `entries` into the GSUM v1 byte format.
pub fn encode(entries: &HashMap<u128, StoredMethod>) -> Vec<u8> {
    let mut keys: Vec<u128> = entries.keys().copied().collect();
    keys.sort_unstable();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    for key in keys {
        let e = &entries[&key];
        out.extend_from_slice(&key.to_le_bytes());
        put_summary(&mut out, &e.summary);
        out.extend_from_slice(&e.slots.to_le_bytes());
        out.extend_from_slice(&e.insts.to_le_bytes());
        out.extend_from_slice(&e.nodes.to_le_bytes());
        out.extend_from_slice(&(e.words.len() as u64).to_le_bytes());
        for &w in &e.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes a GSUM v1 byte stream.
pub fn decode(bytes: &[u8]) -> io::Result<HashMap<u128, StoredMethod>> {
    if bytes.len() < MAGIC.len() + 4 + 8 + 8 {
        return Err(bad("file too short"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored_sum = u64::from_le_bytes(tail.try_into().expect("8-byte split tail"));
    if fnv1a64(body) != stored_sum {
        return Err(bad("checksum mismatch"));
    }
    let mut r = Reader { bytes: body, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(bad("bad magic"));
    }
    if r.u32()? != VERSION {
        return Err(bad("unsupported version"));
    }
    let count = r.u64()?;
    let mut entries = HashMap::new();
    for _ in 0..count {
        let key = r.u128()?;
        let summary = get_summary(&mut r)?;
        let slots = r.u32()?;
        let insts = r.u32()?;
        let nodes = r.u32()?;
        let n_words = r.u64()? as usize;
        let mut words = Vec::with_capacity(n_words.min(1 << 20));
        for _ in 0..n_words {
            words.push(r.u64()?);
        }
        if entries.insert(key, StoredMethod { summary, slots, insts, nodes, words }).is_some() {
            return Err(bad("duplicate key"));
        }
    }
    if r.pos != body.len() {
        return Err(bad("trailing bytes"));
    }
    Ok(entries)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("sumstore: {msg}"))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_field(out: &mut Vec<u8>, f: &RelocField) {
    put_str(out, &f.class);
    put_str(out, &f.name);
}

fn put_token(out: &mut Vec<u8>, t: &RelocToken) {
    match t {
        RelocToken::Formal(k) => {
            out.push(0);
            out.push(*k);
        }
        RelocToken::Fresh => out.push(1),
        RelocToken::StaticIn(f) => {
            out.push(2);
            put_field(out, f);
        }
    }
}

fn put_summary(out: &mut Vec<u8>, s: &RelocSummary) {
    out.extend_from_slice(&(s.returns.len() as u32).to_le_bytes());
    for t in &s.returns {
        put_token(out, t);
    }
    out.extend_from_slice(&(s.field_writes.len() as u32).to_le_bytes());
    for (r, f, src) in &s.field_writes {
        put_token(out, r);
        put_field(out, f);
        put_token(out, src);
    }
    out.extend_from_slice(&(s.static_writes.len() as u32).to_le_bytes());
    for (f, src) in &s.static_writes {
        put_field(out, f);
        put_token(out, src);
    }
    out.extend_from_slice(&(s.array_writes.len() as u32).to_le_bytes());
    for (r, src) in &s.array_writes {
        put_token(out, r);
        put_token(out, src);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(bad("truncated input"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u128(&mut self) -> io::Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16 bytes")))
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8"))
    }

    fn field(&mut self) -> io::Result<RelocField> {
        Ok(RelocField { class: self.string()?, name: self.string()? })
    }

    fn token(&mut self) -> io::Result<RelocToken> {
        match self.u8()? {
            0 => Ok(RelocToken::Formal(self.u8()?)),
            1 => Ok(RelocToken::Fresh),
            2 => Ok(RelocToken::StaticIn(self.field()?)),
            _ => Err(bad("unknown token tag")),
        }
    }
}

fn get_summary(r: &mut Reader) -> io::Result<RelocSummary> {
    let mut s = RelocSummary::default();
    for _ in 0..r.u32()? {
        s.returns.push(r.token()?);
    }
    for _ in 0..r.u32()? {
        s.field_writes.push((r.token()?, r.field()?, r.token()?));
    }
    for _ in 0..r.u32()? {
        s.static_writes.push((r.field()?, r.token()?));
    }
    for _ in 0..r.u32()? {
        s.array_writes.push((r.token()?, r.token()?));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_roundtrips() {
        let entries = HashMap::new();
        let bytes = encode(&entries);
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let mut entries = HashMap::new();
        entries.insert(
            5u128,
            StoredMethod {
                summary: RelocSummary::default(),
                slots: 1,
                insts: 1,
                nodes: 1,
                words: vec![3],
            },
        );
        let bytes = encode(&entries);
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }
}
