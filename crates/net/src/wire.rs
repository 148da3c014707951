//! Wire encoding for rules and tuples.
//!
//! LBTrust principals exchange *rules* (facts are bodyless rules, §4.1 of
//! the paper). The wire format is the canonical text of the Datalog
//! dialect itself: deterministic, self-describing, and — crucially for
//! the authentication schemes — the exact byte string over which
//! signatures and MACs are computed. A message is one `export` tuple:
//! `export[<to>](<from>, <rule-quote>, <signature-bytes>)`.

use lbtrust_crypto::crc32::crc32;
use lbtrust_crypto::sha256::Sha256;
use lbtrust_datalog::ast::{Atom, Rule, Term};
use lbtrust_datalog::{parse_rule, Symbol, Value};
use std::fmt;
use std::sync::Arc;

/// A 32-byte content address over canonical wire bytes.
pub type WireDigest = [u8; 32];

/// SHA-256 content digest of canonical wire bytes — the key under which
/// the certificate store addresses verified credentials.
pub fn digest_bytes(bytes: &[u8]) -> WireDigest {
    Sha256::digest(bytes)
}

/// Lowercase hex rendering of a digest (or any byte string).
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize]);
        out.push(DIGITS[(b & 0xf) as usize]);
    }
    String::from_utf8(out).expect("hex digits are ascii")
}

/// Parses lowercase/uppercase hex back into bytes.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

// ---- record framing (durable logs) ----------------------------------------
//
// The certificate store's segment log reuses the canonical wire
// encoding for its payloads; the framing below adds what a durable,
// append-only file needs on top of it: a length prefix so records can
// be scanned without parsing, and a CRC-32 so a torn write or flipped
// bit at the tail is detected and replay stops cleanly at the last
// valid record.
//
// Layout of one frame (all integers little-endian):
//
// ```text
// [len: u32] [kind: u8] [payload: len-1 bytes] [crc32: u32]
// ```
//
// `len` counts the kind byte plus the payload; the CRC covers the same
// span (kind + payload).

/// Bytes of framing overhead per record (`len` prefix + CRC suffix).
pub const FRAME_OVERHEAD: usize = 8;

/// Upper bound on one frame's body (kind + payload); a corrupt length
/// prefix larger than this is treated as end-of-log rather than an
/// instruction to scan gigabytes.
pub const MAX_FRAME_BODY: usize = 16 * 1024 * 1024;

/// Frames one record: length prefix, kind tag, payload, CRC-32 trailer.
pub fn frame_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let body_len = payload.len() + 1;
    let mut out = Vec::with_capacity(body_len + FRAME_OVERHEAD);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&out[4..]).to_le_bytes());
    out
}

/// Reads the frame starting at `offset`, returning `(kind, payload,
/// next_offset)`. Returns `None` when the buffer ends (cleanly or with
/// a truncated frame), the length prefix is implausible, or the CRC
/// does not match — replay treats all of these as end-of-log.
pub fn read_frame(buf: &[u8], offset: usize) -> Option<(u8, &[u8], usize)> {
    let rest = buf.get(offset..)?;
    if rest.len() < 4 {
        return None;
    }
    let body_len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
    if body_len == 0 || body_len > MAX_FRAME_BODY {
        return None;
    }
    let body = rest.get(4..4 + body_len)?;
    let crc_bytes = rest.get(4 + body_len..4 + body_len + 4)?;
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return None;
    }
    Some((body[0], &body[1..], offset + 4 + body_len + 4))
}

// ---- whole-file metadata frames (manifests, checkpoints) -------------------
//
// The segmented certificate log keeps small metadata files beside its
// record segments: a MANIFEST naming the live segment set and the
// latest checkpoint, and an audit segment of folded lifecycle entries.
// These reuse the record framing above, but with a stricter contract —
// a metadata file is exactly one frame, so a torn or trailing-garbage
// file is detected as a whole rather than salvaged record-by-record.

/// Frame kind of a segment-set manifest file.
pub const META_MANIFEST: u8 = 0xA0;
/// Frame kind of a checkpoint header (inside a checkpoint record's
/// nested frame sequence).
pub const META_CHECKPOINT: u8 = 0xA1;

/// Frames a whole metadata file: one CRC-checked record that must span
/// the file exactly (see [`read_meta_file`]).
pub fn frame_meta_file(kind: u8, payload: &[u8]) -> Vec<u8> {
    frame_record(kind, payload)
}

/// Reads a metadata file produced by [`frame_meta_file`]: the buffer
/// must hold exactly one intact frame of the expected `kind`. Any
/// deviation — wrong kind, bad CRC, trailing bytes — yields `None`, so
/// a half-written manifest is rejected as a whole and the caller falls
/// back to the previous generation.
pub fn read_meta_file(kind: u8, bytes: &[u8]) -> Option<&[u8]> {
    let (k, payload, next) = read_frame(bytes, 0)?;
    (k == kind && next == bytes.len()).then_some(payload)
}

/// Scans a buffer of concatenated frames (a checkpoint record's nested
/// sequence), yielding `(kind, payload)` pairs. Returns `None` unless
/// every byte is covered by intact frames — a checkpoint is trusted
/// state, so partial decode is refused rather than salvaged.
pub fn read_frame_sequence(bytes: &[u8]) -> Option<Vec<(u8, &[u8])>> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let (kind, payload, next) = read_frame(bytes, offset)?;
        out.push((kind, payload));
        offset = next;
    }
    Some(out)
}

/// The byte string a revocation signature covers: issuer name plus the
/// hex digest of the certificate being withdrawn.
pub fn revoke_signing_bytes(issuer: Symbol, digest: &WireDigest) -> Vec<u8> {
    format!("lbtrust-revoke:{issuer}:{}", to_hex(digest)).into_bytes()
}

/// Wire decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Description.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// A decoded LBTrust message: an exported rule with authentication data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireMessage {
    /// The sending principal.
    pub from: Symbol,
    /// The receiving principal.
    pub to: Symbol,
    /// The communicated rule.
    pub rule: Arc<Rule>,
    /// Authentication bytes (empty for plaintext transfer).
    pub auth: Vec<u8>,
}

/// A revocation notice on the wire: `from` withdraws the certificate
/// addressed by `digest`; `auth` is `from`'s signature over
/// [`revoke_signing_bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevokeMessage {
    /// The revoking (issuing) principal.
    pub from: Symbol,
    /// The receiving principal.
    pub to: Symbol,
    /// Content address of the certificate being withdrawn.
    pub digest: WireDigest,
    /// Signature over [`revoke_signing_bytes`].
    pub auth: Vec<u8>,
}

/// An anti-entropy revocation-summary advertisement: `from` tells `to`
/// a compact fingerprint of every revocation it holds signed by
/// `issuer`. Fingerprints are opaque at the wire level — receivers
/// only ever compare them for equality (a mismatch triggers a
/// [`RevPullMessage`]), so no authentication is carried: a forged
/// summary can at worst provoke a redundant pull or suppress one
/// round's repair, and the next round re-advertises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevSummaryMessage {
    /// The advertising principal.
    pub from: Symbol,
    /// The receiving principal.
    pub to: Symbol,
    /// Whose revocations the fingerprint covers (the signer).
    pub issuer: Symbol,
    /// Digest-set fingerprint (hex), compared only for equality.
    pub fingerprint: String,
}

/// An anti-entropy pull request: `from` asks `to` to send every signed
/// revocation it holds issued by `issuer` (the responder replies with
/// [`WirePacket::RevGossip`] frames, which carry the issuer's own
/// signatures — the pull itself needs no authentication).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevPullMessage {
    /// The requesting principal.
    pub from: Symbol,
    /// The responding principal.
    pub to: Symbol,
    /// Whose revocations are requested.
    pub issuer: Symbol,
}

/// Everything that travels between principals: exported rules and
/// revocation notices share one self-describing canonical-text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WirePacket {
    /// An exported, authenticated rule (`export[to](from, R, S)`).
    Export(WireMessage),
    /// A certificate revocation (`revoke[to](from, "digest-hex", S)`).
    Revoke(RevokeMessage),
    /// A revocation-summary advertisement
    /// (`revsummary[to](from, issuer, "fp-hex")`).
    RevSummary(RevSummaryMessage),
    /// A pull request for an issuer's signed revocations
    /// (`revpull[to](from, issuer)`).
    RevPull(RevPullMessage),
    /// A revocation object relayed by the gossip repair layer
    /// (`revgossip[to](from, "digest-hex", S)`). Same payload as
    /// [`WirePacket::Revoke`], but receivers apply it tolerantly: a
    /// relayed object whose signer is not the target certificate's
    /// issuer is remembered as inert rather than rejected, so
    /// anti-entropy converges on the full set of revocation objects.
    RevGossip(RevokeMessage),
}

/// The canonical byte string of a rule — what gets signed/MACed.
pub fn rule_bytes(rule: &Rule) -> Vec<u8> {
    rule.to_string().into_bytes()
}

/// Encodes a message as the canonical text of an `export` fact.
pub fn encode(msg: &WireMessage) -> Vec<u8> {
    let fact = Rule::fact(Atom {
        pred: lbtrust_datalog::ast::PredRef::Name(Symbol::intern("export")),
        key_args: vec![Term::Val(Value::Sym(msg.to))],
        args: vec![
            Term::Val(Value::Sym(msg.from)),
            Term::Val(Value::Quote(msg.rule.clone())),
            Term::Val(Value::bytes(&msg.auth)),
        ],
    });
    fact.to_string().into_bytes()
}

/// Encodes a revocation payload under the given predicate (`revoke`
/// for the eager broadcast, `revgossip` for the anti-entropy relay —
/// identical layout, decoded by the same [`revoke_from_atom`]).
fn encode_revoke_as(pred: &str, msg: &RevokeMessage) -> Vec<u8> {
    let fact = Rule::fact(Atom {
        pred: lbtrust_datalog::ast::PredRef::Name(Symbol::intern(pred)),
        key_args: vec![Term::Val(Value::Sym(msg.to))],
        args: vec![
            Term::Val(Value::Sym(msg.from)),
            Term::Val(Value::str(&to_hex(&msg.digest))),
            Term::Val(Value::bytes(&msg.auth)),
        ],
    });
    fact.to_string().into_bytes()
}

/// Encodes a revocation notice as the canonical text of a `revoke` fact.
pub fn encode_revoke(msg: &RevokeMessage) -> Vec<u8> {
    encode_revoke_as("revoke", msg)
}

/// Encodes a summary advertisement as the canonical text of a
/// `revsummary` fact.
pub fn encode_revsummary(msg: &RevSummaryMessage) -> Vec<u8> {
    let fact = Rule::fact(Atom {
        pred: lbtrust_datalog::ast::PredRef::Name(Symbol::intern("revsummary")),
        key_args: vec![Term::Val(Value::Sym(msg.to))],
        args: vec![
            Term::Val(Value::Sym(msg.from)),
            Term::Val(Value::Sym(msg.issuer)),
            Term::Val(Value::str(&msg.fingerprint)),
        ],
    });
    fact.to_string().into_bytes()
}

/// Encodes a pull request as the canonical text of a `revpull` fact.
pub fn encode_revpull(msg: &RevPullMessage) -> Vec<u8> {
    let fact = Rule::fact(Atom {
        pred: lbtrust_datalog::ast::PredRef::Name(Symbol::intern("revpull")),
        key_args: vec![Term::Val(Value::Sym(msg.to))],
        args: vec![
            Term::Val(Value::Sym(msg.from)),
            Term::Val(Value::Sym(msg.issuer)),
        ],
    });
    fact.to_string().into_bytes()
}

/// Encodes a gossiped revocation object as a `revgossip` fact (same
/// argument structure as `revoke`).
pub fn encode_revgossip(msg: &RevokeMessage) -> Vec<u8> {
    encode_revoke_as("revgossip", msg)
}

/// Encodes either packet variant.
pub fn encode_packet(packet: &WirePacket) -> Vec<u8> {
    match packet {
        WirePacket::Export(m) => encode(m),
        WirePacket::Revoke(m) => encode_revoke(m),
        WirePacket::RevSummary(m) => encode_revsummary(m),
        WirePacket::RevPull(m) => encode_revpull(m),
        WirePacket::RevGossip(m) => encode_revgossip(m),
    }
}

/// Decodes a packet produced by [`encode_packet`] (or plain [`encode`]),
/// dispatching on the fact's predicate.
pub fn decode_packet(bytes: &[u8]) -> Result<WirePacket, WireError> {
    let text = std::str::from_utf8(bytes).map_err(|e| WireError {
        message: format!("invalid utf-8: {e}"),
    })?;
    let fact = parse_rule(text).map_err(|e| WireError {
        message: format!("unparseable message: {e}"),
    })?;
    if fact.heads.len() != 1 || !fact.body.is_empty() {
        return Err(WireError {
            message: "message is not a single fact".into(),
        });
    }
    let head = &fact.heads[0];
    match head.pred.name().map(|s| s.as_str()) {
        Some("export") => Ok(WirePacket::Export(export_from_atom(head)?)),
        Some("revoke") => Ok(WirePacket::Revoke(revoke_from_atom(head)?)),
        Some("revsummary") => Ok(WirePacket::RevSummary(revsummary_from_atom(head)?)),
        Some("revpull") => Ok(WirePacket::RevPull(revpull_from_atom(head)?)),
        Some("revgossip") => Ok(WirePacket::RevGossip(revoke_from_atom(head)?)),
        _ => Err(WireError {
            message: format!("unexpected predicate in '{head}'"),
        }),
    }
}

/// Decodes a `revsummary[to](from, issuer, "fp-hex")` fact.
fn revsummary_from_atom(head: &Atom) -> Result<RevSummaryMessage, WireError> {
    match (head.key_args.as_slice(), head.args.as_slice()) {
        (
            [Term::Val(Value::Sym(to))],
            [Term::Val(Value::Sym(from)), Term::Val(Value::Sym(issuer)), Term::Val(Value::Str(fp))],
        ) => Ok(RevSummaryMessage {
            from: *from,
            to: *to,
            issuer: *issuer,
            fingerprint: fp.to_string(),
        }),
        _ => Err(WireError {
            message: format!("malformed revsummary fact '{head}'"),
        }),
    }
}

/// Decodes a `revpull[to](from, issuer)` fact.
fn revpull_from_atom(head: &Atom) -> Result<RevPullMessage, WireError> {
    match (head.key_args.as_slice(), head.args.as_slice()) {
        (
            [Term::Val(Value::Sym(to))],
            [Term::Val(Value::Sym(from)), Term::Val(Value::Sym(issuer))],
        ) => Ok(RevPullMessage {
            from: *from,
            to: *to,
            issuer: *issuer,
        }),
        _ => Err(WireError {
            message: format!("malformed revpull fact '{head}'"),
        }),
    }
}

/// Decodes a `revoke[to](from, "digest-hex", auth)` fact.
fn revoke_from_atom(head: &Atom) -> Result<RevokeMessage, WireError> {
    let malformed = || WireError {
        message: format!("malformed revoke fact '{head}'"),
    };
    match (head.key_args.as_slice(), head.args.as_slice()) {
        (
            [Term::Val(Value::Sym(to))],
            [Term::Val(Value::Sym(from)), Term::Val(Value::Str(hex)), Term::Val(Value::Bytes(auth))],
        ) => {
            let raw = from_hex(hex).ok_or_else(malformed)?;
            let digest: WireDigest = raw.try_into().map_err(|_| malformed())?;
            Ok(RevokeMessage {
                from: *from,
                to: *to,
                digest,
                auth: auth.to_vec(),
            })
        }
        _ => Err(malformed()),
    }
}

/// Decodes a message produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<WireMessage, WireError> {
    let text = std::str::from_utf8(bytes).map_err(|e| WireError {
        message: format!("invalid utf-8: {e}"),
    })?;
    let fact = parse_rule(text).map_err(|e| WireError {
        message: format!("unparseable message: {e}"),
    })?;
    if fact.heads.len() != 1 || !fact.body.is_empty() {
        return Err(WireError {
            message: "message is not a single fact".into(),
        });
    }
    let head = &fact.heads[0];
    if head.pred.name().map(|s| s.as_str()) != Some("export") {
        return Err(WireError {
            message: format!("unexpected predicate in '{head}'"),
        });
    }
    export_from_atom(head)
}

/// Decodes the argument structure of an `export` fact.
fn export_from_atom(head: &Atom) -> Result<WireMessage, WireError> {
    // The parser yields `Term::Quote` for quote literals; a programmatic
    // encode uses `Term::Val(Value::Quote)`. Accept both.
    fn as_quote(term: &Term) -> Option<Arc<Rule>> {
        match term {
            Term::Quote(r) => Some(r.clone()),
            Term::Val(Value::Quote(r)) => Some(r.clone()),
            _ => None,
        }
    }
    let (to, from, rule, auth) = match (head.key_args.as_slice(), head.args.as_slice()) {
        (
            [Term::Val(Value::Sym(to))],
            [Term::Val(Value::Sym(from)), quote, Term::Val(Value::Bytes(auth))],
        ) => {
            let Some(rule) = as_quote(quote) else {
                return Err(WireError {
                    message: format!("expected a quoted rule in '{head}'"),
                });
            };
            (*to, *from, rule, auth.to_vec())
        }
        _ => {
            return Err(WireError {
                message: format!("malformed export fact '{head}'"),
            })
        }
    };
    Ok(WireMessage {
        from,
        to,
        rule,
        auth,
    })
}

#[cfg(test)]
mod frame_tests {
    use super::*;

    #[test]
    fn frame_roundtrip_single_and_sequence() {
        let buf = frame_record(1, b"hello");
        let (kind, payload, next) = read_frame(&buf, 0).unwrap();
        assert_eq!(kind, 1);
        assert_eq!(payload, b"hello");
        assert_eq!(next, buf.len());

        let mut log = Vec::new();
        for (k, p) in [(1u8, &b"alpha"[..]), (2, b""), (3, b"gamma")] {
            log.extend_from_slice(&frame_record(k, p));
        }
        let mut offset = 0;
        let mut seen = Vec::new();
        while let Some((k, p, next)) = read_frame(&log, offset) {
            seen.push((k, p.to_vec()));
            offset = next;
        }
        assert_eq!(offset, log.len());
        assert_eq!(
            seen,
            vec![
                (1, b"alpha".to_vec()),
                (2, Vec::new()),
                (3, b"gamma".to_vec())
            ]
        );
    }

    #[test]
    fn truncated_tail_stops_cleanly() {
        let mut log = frame_record(1, b"first");
        let keep = log.len();
        log.extend_from_slice(&frame_record(2, b"second"));
        log.truncate(keep + 5); // tear the second frame mid-body
        let (_, payload, next) = read_frame(&log, 0).unwrap();
        assert_eq!(payload, b"first");
        assert!(
            read_frame(&log, next).is_none(),
            "torn frame must not parse"
        );
    }

    #[test]
    fn corrupted_frame_fails_crc() {
        let mut buf = frame_record(7, b"payload-bytes");
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        assert!(read_frame(&buf, 0).is_none());
    }

    #[test]
    fn meta_file_roundtrip_and_rejects() {
        let file = frame_meta_file(META_MANIFEST, b"segments:1,2\n");
        assert_eq!(
            read_meta_file(META_MANIFEST, &file).unwrap(),
            b"segments:1,2\n"
        );
        // Wrong kind.
        assert!(read_meta_file(META_CHECKPOINT, &file).is_none());
        // Trailing garbage after the frame: the whole file is rejected.
        let mut trailing = file.clone();
        trailing.push(0x00);
        assert!(read_meta_file(META_MANIFEST, &trailing).is_none());
        // A torn prefix is rejected too.
        assert!(read_meta_file(META_MANIFEST, &file[..file.len() - 2]).is_none());
        // A flipped bit fails the CRC.
        let mut corrupt = file.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x08;
        assert!(read_meta_file(META_MANIFEST, &corrupt).is_none());
    }

    #[test]
    fn frame_sequence_requires_full_coverage() {
        let mut buf = frame_record(1, b"a");
        buf.extend_from_slice(&frame_record(2, b"bb"));
        let frames = read_frame_sequence(&buf).unwrap();
        assert_eq!(frames, vec![(1u8, &b"a"[..]), (2u8, &b"bb"[..])]);
        assert_eq!(read_frame_sequence(b"").unwrap(), vec![]);
        // A torn tail poisons the whole sequence.
        let torn = &buf[..buf.len() - 3];
        assert!(read_frame_sequence(torn).is_none());
    }

    #[test]
    fn implausible_length_prefix_rejected() {
        let mut buf = frame_record(1, b"x");
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&buf, 0).is_none());
        assert!(read_frame(&[0, 0, 0], 0).is_none(), "short header");
    }
}

#[cfg(test)]
mod packet_tests {
    use super::*;

    #[test]
    fn revoke_roundtrip() {
        let m = RevokeMessage {
            from: Symbol::intern("alice"),
            to: Symbol::intern("bob"),
            digest: digest_bytes(b"some certificate"),
            auth: vec![9, 8, 7],
        };
        let decoded = decode_packet(&encode_revoke(&m)).unwrap();
        assert_eq!(decoded, WirePacket::Revoke(m));
    }

    #[test]
    fn revsummary_and_revpull_roundtrip() {
        let summary = RevSummaryMessage {
            from: Symbol::intern("alice"),
            to: Symbol::intern("bob"),
            issuer: Symbol::intern("carol"),
            fingerprint: to_hex(&digest_bytes(b"revoked set")),
        };
        assert_eq!(
            decode_packet(&encode_revsummary(&summary)).unwrap(),
            WirePacket::RevSummary(summary)
        );
        let pull = RevPullMessage {
            from: Symbol::intern("bob"),
            to: Symbol::intern("alice"),
            issuer: Symbol::intern("carol"),
        };
        assert_eq!(
            decode_packet(&encode_revpull(&pull)).unwrap(),
            WirePacket::RevPull(pull)
        );
    }

    #[test]
    fn revgossip_roundtrips_and_stays_distinct_from_revoke() {
        let m = RevokeMessage {
            from: Symbol::intern("alice"),
            to: Symbol::intern("bob"),
            digest: digest_bytes(b"some certificate"),
            auth: vec![3, 1, 4],
        };
        // Same payload, different predicate: the gossip repair channel
        // must not decode as an eager broadcast (receivers apply the
        // two with different strictness).
        assert_eq!(
            decode_packet(&encode_revgossip(&m)).unwrap(),
            WirePacket::RevGossip(m.clone())
        );
        assert_eq!(
            decode_packet(&encode_revoke(&m)).unwrap(),
            WirePacket::Revoke(m)
        );
    }

    #[test]
    fn packet_decode_dispatches_on_predicate() {
        let export = WireMessage {
            from: Symbol::intern("a"),
            to: Symbol::intern("b"),
            rule: Arc::new(parse_rule("p(x).").unwrap()),
            auth: vec![1],
        };
        match decode_packet(&encode(&export)).unwrap() {
            WirePacket::Export(m) => assert_eq!(m, export),
            other => panic!("export decoded as {other:?}"),
        }
        assert!(decode_packet(b"says(a,b,[| p. |]).").is_err());
    }

    #[test]
    fn hex_roundtrip_and_rejects() {
        let d = digest_bytes(b"abc");
        assert_eq!(from_hex(&to_hex(&d)).unwrap(), d.to_vec());
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("zz").is_none(), "non-hex");
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        assert_eq!(digest_bytes(b"x"), digest_bytes(b"x"));
        assert_ne!(digest_bytes(b"x"), digest_bytes(b"y"));
    }

    #[test]
    fn revoke_signing_bytes_bind_issuer_and_digest() {
        let d1 = digest_bytes(b"c1");
        let d2 = digest_bytes(b"c2");
        let a = Symbol::intern("alice");
        let b = Symbol::intern("bob");
        assert_ne!(revoke_signing_bytes(a, &d1), revoke_signing_bytes(b, &d1));
        assert_ne!(revoke_signing_bytes(a, &d1), revoke_signing_bytes(a, &d2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(rule_src: &str, auth: &[u8]) -> WireMessage {
        WireMessage {
            from: Symbol::intern("alice"),
            to: Symbol::intern("bob"),
            rule: Arc::new(parse_rule(rule_src).unwrap()),
            auth: auth.to_vec(),
        }
    }

    #[test]
    fn roundtrip_fact() {
        let m = msg("access(carol,file1,read).", &[1, 2, 3]);
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn roundtrip_rule_with_body() {
        let m = msg("access(P,O,read) <- good(P), !banned(P).", b"");
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded.rule.to_string(), m.rule.to_string());
        assert!(decoded.auth.is_empty());
    }

    #[test]
    fn roundtrip_nested_quote() {
        let m = msg(
            "says(alice,bob,[| reachable(a,b). |]) <- neighbor(alice,bob).",
            &[0xff; 16],
        );
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn rule_bytes_stable() {
        let r = parse_rule("p(X) <- q(X).").unwrap();
        assert_eq!(rule_bytes(&r), rule_bytes(&r.clone()));
        let r2 = parse_rule("p(X)   <-   q(X).").unwrap();
        // Canonical form erases whitespace differences.
        assert_eq!(rule_bytes(&r), rule_bytes(&r2));
    }

    #[test]
    fn tampered_payload_fails_decode_or_differs() {
        let m = msg("good(alice).", b"sig");
        let mut bytes = encode(&m);
        // Flip a byte inside the rule text.
        let pos = bytes.len() / 2;
        bytes[pos] = bytes[pos].wrapping_add(1);
        match decode(&bytes) {
            Err(_) => {}                           // broken syntax
            Ok(decoded) => assert_ne!(decoded, m), // or a different message
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode(b"not datalog at all").is_err());
        assert!(decode(&[0xff, 0xfe, 0x00]).is_err());
        // A non-export fact is rejected.
        assert!(decode(b"says(a,b,[| p. |]).").is_err());
    }

    /// A peer's frame whose quoted rule nests past the parser's bound
    /// is refused with an error instead of overflowing the receiver's
    /// stack (run on a pool worker's 2 MiB stack).
    #[test]
    fn deeply_nested_export_frame_is_refused() {
        use lbtrust_datalog::MAX_NESTING;
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let frame = String::from_utf8(encode(&msg("p(x).", b"sig"))).unwrap();
                assert!(frame.contains("p(x)."), "{frame}");
                let with_rule = |rule: String| frame.replacen("p(x).", &rule, 1).into_bytes();
                // The frame's own quote is one level, so a rule nested
                // one below the bound still decodes.
                let depth = MAX_NESTING - 1;
                let ok = format!("{}p(x){}.", "q([| ".repeat(depth), " |])".repeat(depth));
                assert!(decode_packet(&with_rule(ok)).is_ok());
                for depth in [MAX_NESTING, 100_000] {
                    for rule in [
                        format!("p(x) <- {}q(x).", "!".repeat(depth)),
                        format!("p(x) <- {}q(x){}.", "(".repeat(depth), ")".repeat(depth)),
                        format!("{}p(x){}.", "q([| ".repeat(depth), " |])".repeat(depth)),
                        format!("p(X) <- q(X), X = {}1.", "1 + ".repeat(depth)),
                    ] {
                        assert!(decode_packet(&with_rule(rule)).is_err());
                    }
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
