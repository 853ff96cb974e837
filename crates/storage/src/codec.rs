//! Binary codec for [`Value`]s.
//!
//! An artifact is one [`frame`]-sealed
//! [`FrameKind::Artifact`] frame (the same versioned header, length
//! field, and CRC-32 trailer the catalog journal uses; `prev_hash` is
//! [`GENESIS_HASH`](crate::frame::GENESIS_HASH) — artifacts stand
//! alone). The payload is the value kind byte followed by varint-framed
//! fields: integers are varint-encoded (zig-zag for signed), floats are
//! IEEE-754 little-endian bit patterns (exact round trip, NaN-safe).
//! Decoding enforces exact-length consumption at both levels: the frame
//! must span the input exactly, and the payload must be fully consumed.
//! The format is self-contained per artifact: no cross-file references,
//! so a catalog entry can be loaded in a fresh process — exactly what
//! cross-iteration reuse needs.
//!
//! Every reuse decodes a whole artifact, so the [`Reader`] is built for
//! the read path without relaxing any check:
//! - f64 slices (dense vectors, sparse values, model weights) are one
//!   bounds check for the whole run followed by an exact-size collect
//!   over 8-byte chunks; [`Writer`] writes them with one resize;
//! - varints take a single-byte fast path (lengths and ids are almost
//!   always < 128);
//! - the hot getters are inlined and their error construction is
//!   `#[cold]`, so the per-example decode loop is a straight run of
//!   compares and loads; the slim examples inference leaves behind
//!   (no features, label and prediction, no tag) match one fixed
//!   22-byte pattern and are decoded with a single bounds check.
//!
//! The bytes are unchanged by any of this: the fast paths accept exactly
//! what the field-by-field paths accept, and return the same value.

use crate::frame::{self, FrameError, FrameKind};
use helix_common::{HelixError, Result};
use helix_data::{
    BucketizerModel, CentroidModel, DataCollection, EmbeddingModel, Example, ExampleBatch,
    FeatureBundle, FeatureSpace, FeatureVector, FieldValue, IndexerModel, LinearModel, Model,
    NaiveBayesModel, Record, RecordBatch, Scalar, ScalerModel, Schema, SemanticUnit, Split,
    TransformModel, UnitBatch, Value, ValueKind,
};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Low-level writer / reader
// ---------------------------------------------------------------------

/// Append-only byte sink with varint framing.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// New writer with `capacity` bytes pre-allocated. The codec sits on
    /// the prefetch/background-write hot path, so `encode_value` passes a
    /// cheap size hint here instead of letting the buffer double its way
    /// up through reallocations.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer { buf: Vec::with_capacity(capacity) }
    }

    /// Finished bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A run of f64s with no length prefix: one resize for the whole run,
    /// then fixed-width 8-byte stores (a plain copy on little-endian).
    fn put_f64_run(&mut self, vs: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 8, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    fn put_opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.put_u8(0),
            Some(s) => {
                self.put_u8(1);
                self.put_str(s);
            }
        }
    }

    fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.put_u8(0),
            Some(v) => {
                self.put_u8(1);
                self.put_f64(v);
            }
        }
    }

    fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_varint(vs.len() as u64);
        self.put_f64_run(vs);
    }
}

// Error construction is kept out of line and marked cold so the hot
// getters below stay small enough to inline into the decode loops.

#[cold]
#[inline(never)]
fn malformed(detail: &'static str) -> HelixError {
    HelixError::codec(detail)
}

#[cold]
#[inline(never)]
fn bad_tag(what: &'static str, tag: u8) -> HelixError {
    HelixError::codec(format!("bad {what} tag {tag}"))
}

/// Cursor over encoded bytes with bounds and format checking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes, or `None` (position unchanged) when fewer
    /// remain. The single bounds check behind every fixed-width read.
    #[inline(always)]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }

    #[inline(always)]
    fn get_u8(&mut self) -> Result<u8> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(malformed("unexpected end of frame")),
        }
    }

    #[inline(always)]
    fn get_varint(&mut self) -> Result<u64> {
        // Lengths, counts and small ids are almost always < 128: one byte.
        if let Some(&b) = self.buf.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(b as u64);
            }
        }
        self.get_varint_multi()
    }

    #[inline(never)]
    fn get_varint_multi(&mut self) -> Result<u64> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(malformed("varint overflow"));
            }
            out |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    fn get_zigzag(&mut self) -> Result<i64> {
        let raw = self.get_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    #[inline(always)]
    fn get_f64(&mut self) -> Result<f64> {
        match self.take(8) {
            Some(b) => Ok(f64::from_le_bytes(b.try_into().expect("took 8 bytes"))),
            None => Err(malformed("truncated f64")),
        }
    }

    /// `n` f64s with no length prefix: one bounds check for the whole
    /// run, then an exact-size collect over 8-byte chunks.
    fn get_f64_run(&mut self, n: usize) -> Result<Vec<f64>> {
        let bytes = n
            .checked_mul(8)
            .and_then(|len| self.take(len))
            .ok_or_else(|| malformed("truncated f64 run"))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect())
    }

    #[inline(always)]
    fn get_len(&mut self, elem_floor: usize) -> Result<usize> {
        // Compare in u64 BEFORE any usize cast: on a 32-bit target a
        // corrupt declared length of 2^32 + k would otherwise truncate to
        // k and decode garbage as a valid shorter field.
        let len = self.get_varint()?;
        // Defensive bound: a declared length can never exceed the number of
        // elements that could possibly fit in the remaining bytes.
        let remaining = (self.buf.len() - self.pos) as u64;
        if elem_floor > 0 && len > remaining / elem_floor as u64 + 1 {
            return Err(len_exceeds(len, Some(remaining)));
        }
        if len > usize::MAX as u64 {
            return Err(len_exceeds(len, None));
        }
        Ok(len as usize)
    }

    fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_len(1)?;
        self.take(len).ok_or_else(|| malformed("truncated byte field"))
    }

    fn get_str(&mut self) -> Result<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8"))
    }

    #[inline(always)]
    fn get_opt_str(&mut self) -> Result<Option<String>> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_str()?)),
            t => Err(bad_tag("option", t)),
        }
    }

    #[inline(always)]
    fn get_opt_f64(&mut self) -> Result<Option<f64>> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f64()?)),
            t => Err(bad_tag("option", t)),
        }
    }

    #[inline(always)]
    fn get_f64_vec(&mut self) -> Result<Vec<f64>> {
        let len = self.get_len(8)?;
        self.get_f64_run(len)
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cold]
#[inline(never)]
fn len_exceeds(len: u64, remaining: Option<u64>) -> HelixError {
    HelixError::codec(match remaining {
        Some(remaining) => {
            format!("declared length {len} exceeds remaining frame ({remaining} bytes)")
        }
        None => format!("declared length {len} exceeds the address space"),
    })
}

// ---------------------------------------------------------------------
// Field-level encode/decode
// ---------------------------------------------------------------------

fn put_split(w: &mut Writer, s: Split) {
    w.put_u8(s.to_byte());
}

#[inline(always)]
fn get_split(r: &mut Reader) -> Result<Split> {
    let b = r.get_u8()?;
    Split::from_byte(b).ok_or_else(|| bad_tag("split", b))
}

fn put_field_value(w: &mut Writer, v: &FieldValue) {
    match v {
        FieldValue::Null => w.put_u8(0),
        FieldValue::Int(i) => {
            w.put_u8(1);
            w.put_zigzag(*i);
        }
        FieldValue::Float(f) => {
            w.put_u8(2);
            w.put_f64(*f);
        }
        FieldValue::Text(s) => {
            w.put_u8(3);
            w.put_str(s);
        }
    }
}

fn get_field_value(r: &mut Reader) -> Result<FieldValue> {
    Ok(match r.get_u8()? {
        0 => FieldValue::Null,
        1 => FieldValue::Int(r.get_zigzag()?),
        2 => FieldValue::Float(r.get_f64()?),
        3 => FieldValue::Text(r.get_str()?),
        t => return Err(bad_tag("field-value", t)),
    })
}

fn put_feature_vector(w: &mut Writer, v: &FeatureVector) {
    match v {
        FeatureVector::Dense(d) => {
            w.put_u8(0);
            w.put_f64_slice(d);
        }
        FeatureVector::Sparse { dim, indices, values } => {
            w.put_u8(1);
            w.put_varint(*dim as u64);
            w.put_varint(indices.len() as u64);
            for i in indices {
                w.put_varint(*i as u64);
            }
            w.put_f64_run(values);
        }
    }
}

#[inline(always)]
fn get_feature_vector(r: &mut Reader) -> Result<FeatureVector> {
    Ok(match r.get_u8()? {
        0 => FeatureVector::Dense(r.get_f64_vec()?),
        1 => {
            let dim = r.get_varint()? as u32;
            let nnz = r.get_len(9)?;
            let mut indices = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                indices.push(r.get_varint()? as u32);
            }
            let values = r.get_f64_run(nnz)?;
            FeatureVector::Sparse { dim, indices, values }
        }
        t => return Err(bad_tag("feature-vector", t)),
    })
}

fn put_bundle(w: &mut Writer, b: &FeatureBundle) {
    match b {
        FeatureBundle::Categorical(kv) => {
            w.put_u8(0);
            w.put_varint(kv.len() as u64);
            for (k, v) in kv {
                w.put_str(k);
                w.put_str(v);
            }
        }
        FeatureBundle::Numeric(kv) => {
            w.put_u8(1);
            w.put_varint(kv.len() as u64);
            for (k, v) in kv {
                w.put_str(k);
                w.put_f64(*v);
            }
        }
        FeatureBundle::Vector(v) => {
            w.put_u8(2);
            put_feature_vector(w, v);
        }
        FeatureBundle::Tokens(ts) => {
            w.put_u8(3);
            w.put_varint(ts.len() as u64);
            for t in ts {
                w.put_str(t);
            }
        }
        FeatureBundle::Empty => w.put_u8(4),
    }
}

fn get_bundle(r: &mut Reader) -> Result<FeatureBundle> {
    Ok(match r.get_u8()? {
        0 => {
            let n = r.get_len(2)?;
            let mut kv = Vec::with_capacity(n);
            for _ in 0..n {
                kv.push((r.get_str()?, r.get_str()?));
            }
            FeatureBundle::Categorical(kv)
        }
        1 => {
            let n = r.get_len(9)?;
            let mut kv = Vec::with_capacity(n);
            for _ in 0..n {
                kv.push((r.get_str()?, r.get_f64()?));
            }
            FeatureBundle::Numeric(kv)
        }
        2 => FeatureBundle::Vector(get_feature_vector(r)?),
        3 => {
            let n = r.get_len(1)?;
            let mut ts = Vec::with_capacity(n);
            for _ in 0..n {
                ts.push(r.get_str()?);
            }
            FeatureBundle::Tokens(ts)
        }
        4 => FeatureBundle::Empty,
        t => return Err(bad_tag("bundle", t)),
    })
}

fn put_records(w: &mut Writer, batch: &RecordBatch) {
    w.put_varint(batch.schema.arity() as u64);
    for c in batch.schema.columns() {
        w.put_str(c);
    }
    w.put_varint(batch.rows.len() as u64);
    for row in &batch.rows {
        put_split(w, row.split);
        for v in &row.values {
            put_field_value(w, v);
        }
    }
}

fn get_records(r: &mut Reader) -> Result<RecordBatch> {
    let arity = r.get_len(1)?;
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        cols.push(r.get_str()?);
    }
    let schema = Schema::new(cols);
    let n = r.get_len(1)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let split = get_split(r)?;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(get_field_value(r)?);
        }
        rows.push(Record { values, split });
    }
    RecordBatch::new(schema, rows)
}

fn put_units(w: &mut Writer, batch: &UnitBatch) {
    w.put_varint(batch.units.len() as u64);
    for u in &batch.units {
        w.put_varint(u.origin as u64);
        put_split(w, u.split);
        put_bundle(w, &u.features);
        w.put_opt_str(u.key.as_deref());
    }
}

fn get_units(r: &mut Reader) -> Result<UnitBatch> {
    let n = r.get_len(3)?;
    let mut units = Vec::with_capacity(n);
    for _ in 0..n {
        let origin = r.get_varint()? as u32;
        let split = get_split(r)?;
        let features = get_bundle(r)?;
        let key = r.get_opt_str()?;
        units.push(SemanticUnit { origin, split, features, key });
    }
    Ok(UnitBatch::new(units))
}

fn put_examples(w: &mut Writer, batch: &ExampleBatch) {
    let entries: Vec<(&str, u32)> = batch.space.entries().collect();
    w.put_varint(entries.len() as u64);
    for (name, owner) in entries {
        w.put_str(name);
        w.put_varint(owner as u64);
    }
    w.put_varint(batch.examples.len() as u64);
    for e in &batch.examples {
        put_feature_vector(w, &e.features);
        w.put_opt_f64(e.label);
        put_split(w, e.split);
        w.put_opt_f64(e.prediction);
        w.put_opt_str(e.tag.as_deref());
    }
}

fn get_examples(r: &mut Reader) -> Result<ExampleBatch> {
    let n_feat = r.get_len(2)?;
    let mut entries = Vec::with_capacity(n_feat);
    for _ in 0..n_feat {
        entries.push((r.get_str()?, r.get_varint()? as u32));
    }
    let space = Arc::new(FeatureSpace::from_entries(entries));
    let n = r.get_len(4)?;
    let mut examples = Vec::with_capacity(n);
    for _ in 0..n {
        examples.push(get_example(r)?);
    }
    Ok(ExampleBatch::new(space, examples))
}

/// Encoded length of a *slim* example — the shape inference leaves
/// behind once features are dropped: dense tag, zero length, `Some`
/// label, split, `Some` prediction, no tag.
const SLIM_EXAMPLE_LEN: usize = 22;

/// One example. Slim examples are recognised by their fixed byte
/// pattern and decoded with one bounds check; anything else (or a
/// pattern that does not match exactly) takes the field-by-field path.
/// Both decode the same bytes to the same value.
#[inline(always)]
fn get_example(r: &mut Reader) -> Result<Example> {
    if let Some(example) = get_slim_example(r) {
        return Ok(example);
    }
    let features = get_feature_vector(r)?;
    let label = r.get_opt_f64()?;
    let split = get_split(r)?;
    let prediction = r.get_opt_f64()?;
    let tag = r.get_opt_str()?;
    Ok(Example { features, label, split, prediction, tag })
}

#[inline(always)]
fn get_slim_example(r: &mut Reader) -> Option<Example> {
    let b: &[u8; SLIM_EXAMPLE_LEN] =
        r.buf.get(r.pos..r.pos.checked_add(SLIM_EXAMPLE_LEN)?)?.try_into().ok()?;
    let f64_at = |at: usize| f64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    if b[..3] != [0, 0, 1] || b[12] != 1 || b[21] != 0 {
        return None;
    }
    let split = Split::from_byte(b[11])?;
    r.pos += SLIM_EXAMPLE_LEN;
    Some(Example {
        features: FeatureVector::Dense(Vec::new()),
        label: Some(f64_at(3)),
        split,
        prediction: Some(f64_at(13)),
        tag: None,
    })
}

fn put_model(w: &mut Writer, model: &Model) {
    match model {
        Model::Linear(m) => {
            w.put_u8(0);
            w.put_varint(m.dim as u64);
            w.put_varint(m.weights.len() as u64);
            for ws in &m.weights {
                w.put_f64_slice(ws);
            }
            w.put_f64_slice(&m.bias);
        }
        Model::Centroids(m) => {
            w.put_u8(1);
            w.put_varint(m.dim as u64);
            w.put_f64(m.inertia);
            w.put_varint(m.centroids.len() as u64);
            for c in &m.centroids {
                w.put_f64_slice(c);
            }
        }
        Model::Embeddings(m) => {
            w.put_u8(2);
            w.put_varint(m.dim as u64);
            w.put_varint(m.vocab.len() as u64);
            // Deterministic order for byte-stable artifacts.
            let mut entries: Vec<(&String, &u32)> = m.vocab.iter().collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            for (token, row) in entries {
                w.put_str(token);
                w.put_varint(*row as u64);
            }
            w.put_f64_slice(&m.vectors);
        }
        Model::NaiveBayes(m) => {
            w.put_u8(3);
            w.put_varint(m.dim as u64);
            w.put_f64_slice(&m.log_priors);
            w.put_f64_slice(&m.log_likelihoods);
        }
        Model::Transform(t) => {
            w.put_u8(4);
            match t {
                TransformModel::Scaler(s) => {
                    w.put_u8(0);
                    w.put_f64_slice(&s.means);
                    w.put_f64_slice(&s.stds);
                }
                TransformModel::Bucketizer(b) => {
                    w.put_u8(1);
                    w.put_f64_slice(&b.boundaries);
                }
                TransformModel::Indexer(i) => {
                    w.put_u8(2);
                    w.put_varint(i.vocab.len() as u64);
                    let mut entries: Vec<(&String, &u32)> = i.vocab.iter().collect();
                    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
                    for (k, v) in entries {
                        w.put_str(k);
                        w.put_varint(*v as u64);
                    }
                }
                TransformModel::RandomFourier { projection, offsets, dim_in, dim_out } => {
                    w.put_u8(3);
                    w.put_varint(*dim_in as u64);
                    w.put_varint(*dim_out as u64);
                    w.put_f64_slice(projection);
                    w.put_f64_slice(offsets);
                }
            }
        }
    }
}

fn get_model(r: &mut Reader) -> Result<Model> {
    Ok(match r.get_u8()? {
        0 => {
            let dim = r.get_varint()? as u32;
            let classes = r.get_len(2)?;
            let mut weights = Vec::with_capacity(classes);
            for _ in 0..classes {
                weights.push(r.get_f64_vec()?);
            }
            let bias = r.get_f64_vec()?;
            Model::Linear(LinearModel { weights, bias, dim })
        }
        1 => {
            let dim = r.get_varint()? as u32;
            let inertia = r.get_f64()?;
            let k = r.get_len(2)?;
            let mut centroids = Vec::with_capacity(k);
            for _ in 0..k {
                centroids.push(r.get_f64_vec()?);
            }
            Model::Centroids(CentroidModel { centroids, dim, inertia })
        }
        2 => {
            let dim = r.get_varint()? as u32;
            let n = r.get_len(2)?;
            let mut vocab = HashMap::with_capacity(n);
            for _ in 0..n {
                let token = r.get_str()?;
                let row = r.get_varint()? as u32;
                vocab.insert(token, row);
            }
            let vectors = r.get_f64_vec()?;
            Model::Embeddings(EmbeddingModel { vocab, vectors, dim })
        }
        3 => {
            let dim = r.get_varint()? as u32;
            let log_priors = r.get_f64_vec()?;
            let log_likelihoods = r.get_f64_vec()?;
            Model::NaiveBayes(NaiveBayesModel { log_priors, log_likelihoods, dim })
        }
        4 => Model::Transform(match r.get_u8()? {
            0 => TransformModel::Scaler(ScalerModel {
                means: r.get_f64_vec()?,
                stds: r.get_f64_vec()?,
            }),
            1 => TransformModel::Bucketizer(BucketizerModel { boundaries: r.get_f64_vec()? }),
            2 => {
                let n = r.get_len(2)?;
                let mut vocab = HashMap::with_capacity(n);
                for _ in 0..n {
                    let k = r.get_str()?;
                    let v = r.get_varint()? as u32;
                    vocab.insert(k, v);
                }
                TransformModel::Indexer(IndexerModel { vocab })
            }
            3 => {
                let dim_in = r.get_varint()? as u32;
                let dim_out = r.get_varint()? as u32;
                let projection = r.get_f64_vec()?;
                let offsets = r.get_f64_vec()?;
                TransformModel::RandomFourier { projection, offsets, dim_in, dim_out }
            }
            t => return Err(bad_tag("transform", t)),
        }),
        t => return Err(bad_tag("model", t)),
    })
}

fn put_scalar(w: &mut Writer, s: &Scalar) {
    match s {
        Scalar::F64(v) => {
            w.put_u8(0);
            w.put_f64(*v);
        }
        Scalar::I64(v) => {
            w.put_u8(1);
            w.put_zigzag(*v);
        }
        Scalar::Text(t) => {
            w.put_u8(2);
            w.put_str(t);
        }
        Scalar::Metrics(m) => {
            w.put_u8(3);
            w.put_varint(m.len() as u64);
            for (k, v) in m {
                w.put_str(k);
                w.put_f64(*v);
            }
        }
    }
}

fn get_scalar(r: &mut Reader) -> Result<Scalar> {
    Ok(match r.get_u8()? {
        0 => Scalar::F64(r.get_f64()?),
        1 => Scalar::I64(r.get_zigzag()?),
        2 => Scalar::Text(r.get_str()?),
        3 => {
            let n = r.get_len(9)?;
            let mut m = Vec::with_capacity(n);
            for _ in 0..n {
                m.push((r.get_str()?, r.get_f64()?));
            }
            Scalar::Metrics(m)
        }
        t => return Err(bad_tag("scalar", t)),
    })
}

// ---------------------------------------------------------------------
// Top-level frame
// ---------------------------------------------------------------------

/// Encode a value into one self-contained, sealed [`FrameKind::Artifact`]
/// frame.
pub fn encode_value(value: &Value) -> Vec<u8> {
    // `byte_size` is a cheap in-memory estimate (no encoding work) that
    // tracks the encoded size closely for the float-dominated payloads
    // that matter; a slightly-off hint costs at most one reallocation.
    use helix_data::ByteSized;
    let hint = (value.byte_size() as usize).saturating_add(64);
    let mut w = Writer { buf: frame::begin_frame(FrameKind::Artifact, hint) };
    w.put_u8(value.kind().to_byte());
    match value {
        Value::Collection(DataCollection::Records(b)) => put_records(&mut w, b),
        Value::Collection(DataCollection::Units(b)) => put_units(&mut w, b),
        Value::Collection(DataCollection::Examples(b)) => put_examples(&mut w, b),
        Value::Model(m) => put_model(&mut w, m),
        Value::Scalar(s) => put_scalar(&mut w, s),
    }
    frame::seal_frame(w.into_bytes(), frame::GENESIS_HASH)
}

/// Decode a frame produced by [`encode_value`], verifying — in this
/// order, so the error names the actual problem — magic, version, frame
/// truncation, CRC, and exact-length consumption. A non-HELIX input
/// reports *bad magic*, never a misleading checksum mismatch; the three
/// corruption categories (`not a HELIX frame` / `truncated` /
/// `checksum mismatch`) stay distinct so callers (and the journal
/// scanner, which shares the parser) can act on them.
pub fn decode_value(bytes: &[u8]) -> Result<Value> {
    let parsed = frame::parse_frame(bytes).map_err(|e| match e {
        FrameError::NotAFrame => HelixError::codec("bad magic (not a HELIX artifact)"),
        FrameError::Truncated => HelixError::codec("truncated artifact frame"),
        FrameError::Corrupt => HelixError::codec("checksum mismatch (corrupt artifact)"),
        other => HelixError::from(other),
    })?;
    // Exact-length consumption, frame level: bytes beyond the sealed
    // frame mean the file was appended to or spliced.
    if parsed.len != bytes.len() {
        return Err(HelixError::codec("trailing bytes after artifact frame"));
    }
    if parsed.kind != FrameKind::Artifact {
        return Err(HelixError::codec(format!(
            "not an artifact (frame kind {:#04x} is a catalog-journal record)",
            parsed.kind.to_byte()
        )));
    }
    let mut r = Reader::new(parsed.payload);
    let kind_byte = r.get_u8()?;
    let kind = ValueKind::from_byte(kind_byte)
        .ok_or_else(|| HelixError::codec(format!("bad value kind {kind_byte}")))?;
    let value = match kind {
        ValueKind::Records => Value::records(get_records(&mut r)?),
        ValueKind::Units => Value::units(get_units(&mut r)?),
        ValueKind::Examples => Value::examples(get_examples(&mut r)?),
        ValueKind::Model => Value::Model(get_model(&mut r)?),
        ValueKind::Scalar => Value::Scalar(get_scalar(&mut r)?),
    };
    if !r.finished() {
        return Err(HelixError::codec("trailing bytes after payload"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_common::crc32::crc32;
    use proptest::prelude::*;

    fn sample_records() -> Value {
        let schema = Schema::new(["age", "education", "target"]);
        let batch = RecordBatch::new(
            schema,
            vec![
                Record::train(vec![
                    FieldValue::Int(39),
                    FieldValue::Text("Bachelors".into()),
                    FieldValue::Int(0),
                ]),
                Record::test(vec![FieldValue::Float(50.5), FieldValue::Null, FieldValue::Int(1)]),
            ],
        )
        .unwrap();
        Value::records(batch)
    }

    fn roundtrip(v: &Value) -> Value {
        decode_value(&encode_value(v)).expect("roundtrip")
    }

    #[test]
    fn records_roundtrip() {
        let v = sample_records();
        let back = roundtrip(&v);
        let (a, b) = (v.as_collection().unwrap(), back.as_collection().unwrap());
        assert_eq!(a.as_records().unwrap(), b.as_records().unwrap());
    }

    #[test]
    fn units_roundtrip() {
        let batch = UnitBatch::new(vec![
            SemanticUnit::new(
                0,
                Split::Train,
                FeatureBundle::Categorical(vec![("edu".into(), "BS".into())]),
            ),
            SemanticUnit::keyed(
                1,
                Split::Test,
                FeatureBundle::Tokens(vec!["gene".into(), "tp53".into()]),
                "tp53",
            ),
            SemanticUnit::new(2, Split::Train, FeatureBundle::Numeric(vec![("age".into(), 3.5)])),
            SemanticUnit::new(
                3,
                Split::Train,
                FeatureBundle::Vector(FeatureVector::sparse_from_pairs(5, vec![(1, 2.0)])),
            ),
            SemanticUnit::new(4, Split::Test, FeatureBundle::Empty),
        ]);
        let v = Value::units(batch);
        let back = roundtrip(&v);
        assert_eq!(
            v.as_collection().unwrap().as_units().unwrap(),
            back.as_collection().unwrap().as_units().unwrap()
        );
    }

    #[test]
    fn examples_roundtrip_preserves_space_and_provenance() {
        let mut space = FeatureSpace::new();
        space.intern("edu=BS", 4);
        space.intern("ageBucket_3", 7);
        let batch = ExampleBatch::new(
            Arc::new(space),
            vec![
                Example {
                    features: FeatureVector::sparse_from_pairs(2, vec![(0, 1.0)]),
                    label: Some(1.0),
                    split: Split::Train,
                    prediction: Some(0.83),
                    tag: Some("row-0".into()),
                },
                Example::new(FeatureVector::Dense(vec![0.5, -2.0]), None, Split::Test),
            ],
        );
        let v = Value::examples(batch);
        let back = roundtrip(&v);
        let decoded = back.as_collection().unwrap().as_examples().unwrap();
        assert_eq!(decoded.space.dim(), 2);
        assert_eq!(decoded.space.owner(1), Some(7));
        assert_eq!(decoded.space.name(0), Some("edu=BS"));
        assert_eq!(decoded.examples[0].prediction, Some(0.83));
        assert_eq!(decoded.examples[0].tag.as_deref(), Some("row-0"));
        assert_eq!(decoded.examples[1].label, None);
    }

    #[test]
    fn all_model_variants_roundtrip() {
        let models = vec![
            Model::Linear(LinearModel {
                weights: vec![vec![0.1, -0.2], vec![0.3, 0.4]],
                bias: vec![0.01, -0.02],
                dim: 2,
            }),
            Model::Centroids(CentroidModel {
                centroids: vec![vec![1.0, 2.0], vec![-1.0, 0.0]],
                dim: 2,
                inertia: 12.5,
            }),
            Model::Embeddings(EmbeddingModel {
                vocab: [("brca1".to_string(), 0u32), ("tp53".to_string(), 1u32)]
                    .into_iter()
                    .collect(),
                vectors: vec![0.1, 0.2, 0.3, 0.4],
                dim: 2,
            }),
            Model::NaiveBayes(NaiveBayesModel {
                log_priors: vec![-0.7, -0.7],
                log_likelihoods: vec![-1.0, -2.0, -3.0, -4.0],
                dim: 2,
            }),
            Model::Transform(TransformModel::Scaler(ScalerModel {
                means: vec![1.0],
                stds: vec![2.0],
            })),
            Model::Transform(TransformModel::Bucketizer(BucketizerModel {
                boundaries: vec![10.0, 20.0],
            })),
            Model::Transform(TransformModel::Indexer(IndexerModel {
                vocab: [("a".to_string(), 0u32)].into_iter().collect(),
            })),
            Model::Transform(TransformModel::RandomFourier {
                projection: vec![0.5; 6],
                offsets: vec![0.1, 0.2],
                dim_in: 3,
                dim_out: 2,
            }),
        ];
        for m in models {
            let v = Value::Model(m);
            let back = roundtrip(&v);
            assert_eq!(v.as_model().unwrap(), back.as_model().unwrap());
        }
    }

    #[test]
    fn scalar_variants_roundtrip() {
        for s in [
            Scalar::F64(0.913),
            Scalar::F64(f64::NEG_INFINITY),
            Scalar::I64(-42),
            Scalar::Text("accuracy report".into()),
            Scalar::Metrics(vec![("acc".into(), 0.9), ("f1".into(), 0.8)]),
        ] {
            let v = Value::Scalar(s);
            let back = roundtrip(&v);
            assert_eq!(v.as_scalar().unwrap(), back.as_scalar().unwrap());
        }
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let v = Value::Scalar(Scalar::F64(f64::NAN));
        let back = roundtrip(&v);
        match back.as_scalar().unwrap() {
            Scalar::F64(f) => assert!(f.is_nan()),
            _ => panic!("wrong scalar"),
        }
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = encode_value(&sample_records());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode_value(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_value(&sample_records());
        for cut in [0, 3, 8, bytes.len() - 5] {
            assert!(decode_value(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_magic_and_version_detected() {
        let mut bytes = encode_value(&Value::Scalar(Scalar::I64(7)));
        bytes[0] = b'Z';
        // Re-stamp CRC so only the magic check can fire.
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_value(&bytes).unwrap_err().to_string().contains("magic"));

        let mut bytes = encode_value(&Value::Scalar(Scalar::I64(7)));
        bytes[4] = 99; // version
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_value(&bytes).unwrap_err().to_string().contains("version"));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = encode_value(&Value::Scalar(Scalar::I64(7)));
        // Insert a junk byte before the CRC and restamp: payload now has
        // trailing content.
        let insert_at = bytes.len() - 4;
        bytes.insert(insert_at, 0xAB);
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_value(&bytes).is_err());
    }

    #[test]
    fn non_helix_file_reports_bad_magic_not_corruption() {
        // Feeding a random non-Helix file must say "not ours", never the
        // misleading "checksum mismatch" the old decoder led with.
        for junk in [&b"PK\x03\x04zip archive bytes"[..], b"{\"json\": true}", b"\x00\x01\x02"] {
            let err = decode_value(junk).unwrap_err().to_string();
            assert!(err.contains("magic"), "want magic error, got: {err}");
            assert!(!err.contains("checksum"), "must not claim corruption: {err}");
        }
    }

    #[test]
    fn error_categories_stay_distinct() {
        let good = encode_value(&Value::Scalar(Scalar::I64(7)));
        // Truncated: the frame header declares more than is present.
        let err = decode_value(&good[..good.len() - 3]).unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");
        // Corrupt: correctly delimited, CRC broken.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        let err = decode_value(&bad).unwrap_err().to_string();
        assert!(err.contains("checksum"), "{err}");
        // Not an artifact: a CRC-valid *journal* frame is refused by kind.
        let mut journal = frame::begin_frame(FrameKind::Upsert, 2);
        journal.extend_from_slice(b"{}");
        let journal = frame::seal_frame(journal, frame::GENESIS_HASH);
        let err = decode_value(&journal).unwrap_err().to_string();
        assert!(err.contains("not an artifact"), "{err}");
    }

    /// Seal a hand-built payload as an artifact frame (valid CRC), so
    /// only the payload checks can reject it.
    fn sealed(build: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer { buf: frame::begin_frame(FrameKind::Artifact, 64) };
        build(&mut w);
        frame::seal_frame(w.into_bytes(), frame::GENESIS_HASH)
    }

    /// Re-seal the first `len` payload bytes of a valid artifact.
    fn resealed_prefix(artifact: &[u8], len: usize) -> Vec<u8> {
        let payload = frame::parse_frame(artifact).unwrap().payload;
        sealed(|w| w.buf.extend_from_slice(&payload[..len]))
    }

    fn empty_space(w: &mut Writer) {
        w.put_u8(ValueKind::Examples.to_byte());
        w.put_varint(0); // feature-space entries
    }

    #[test]
    fn declared_f64_run_longer_than_frame_is_an_error() {
        // Model bias declares more f64s than the frame holds: once past the
        // length-floor guard, once by exactly one element (the floor
        // admits it; the bulk bounds check must not).
        for declared in [1_000_000u64, 3] {
            let bytes = sealed(|w| {
                w.put_u8(ValueKind::Model.to_byte());
                w.put_u8(0); // linear
                w.put_varint(2); // dim
                w.put_varint(0); // no weight rows
                w.put_varint(declared);
                w.put_f64(1.0);
                w.put_f64(2.0);
            });
            let err = decode_value(&bytes).unwrap_err().to_string();
            assert!(err.contains("exceeds") || err.contains("truncated"), "{declared}: {err}");
        }
        // A dense example vector the same way.
        let bytes = sealed(|w| {
            empty_space(w);
            w.put_varint(1); // one example
            w.put_u8(0); // dense
            w.put_varint(2);
            w.put_f64(0.5);
        });
        assert!(decode_value(&bytes).is_err());
    }

    #[test]
    fn sparse_nnz_longer_than_frame_is_an_error() {
        for (nnz, values_present) in [(1_000_000u64, 0usize), (3, 2), (2, 1)] {
            let bytes = sealed(|w| {
                empty_space(w);
                w.put_varint(1);
                w.put_u8(1); // sparse
                w.put_varint(16); // dim
                w.put_varint(nnz);
                for i in 0..nnz.min(3) {
                    w.put_varint(i);
                }
                for _ in 0..values_present {
                    w.put_f64(1.5);
                }
            });
            assert!(decode_value(&bytes).is_err(), "nnz {nnz} with {values_present} values");
        }
    }

    #[test]
    fn payload_cut_inside_a_bulk_f64_run_is_an_error() {
        let model = Value::Model(Model::Linear(LinearModel {
            weights: vec![(0..64).map(|i| i as f64 * 0.25).collect()],
            bias: vec![0.5],
            dim: 64,
        }));
        let examples = Value::examples(ExampleBatch::dense(vec![Example::new(
            FeatureVector::sparse_from_pairs(64, (0..32).map(|i| (i * 2, i as f64)).collect()),
            Some(1.0),
            Split::Train,
        )]));
        let slim = Value::examples(ExampleBatch::dense(
            (0..3)
                .map(|i| Example {
                    features: FeatureVector::Dense(Vec::new()),
                    label: Some(i as f64),
                    split: Split::Test,
                    prediction: Some(0.5),
                    tag: None,
                })
                .collect(),
        ));
        for value in [model, examples, slim] {
            let artifact = encode_value(&value);
            let payload_len = frame::parse_frame(&artifact).unwrap().payload.len();
            assert!(decode_value(&resealed_prefix(&artifact, payload_len)).is_ok());
            for cut in 0..payload_len {
                assert!(
                    decode_value(&resealed_prefix(&artifact, cut)).is_err(),
                    "payload cut at {cut} of {payload_len} decoded"
                );
            }
        }
    }

    #[test]
    fn slim_example_pattern_with_bad_split_is_an_error() {
        let bytes = sealed(|w| {
            empty_space(w);
            w.put_varint(1);
            w.put_u8(0); // dense
            w.put_varint(0);
            w.put_opt_f64(Some(1.0));
            w.put_u8(7); // not a split
            w.put_opt_f64(Some(0.25));
            w.put_opt_str(None);
        });
        let err = decode_value(&bytes).unwrap_err().to_string();
        assert!(err.contains("split"), "{err}");
    }

    #[test]
    fn f64_run_length_overflow_is_an_error() {
        let bytes = [0u8; 16];
        let mut r = Reader::new(&bytes);
        assert!(r.get_f64_run(usize::MAX / 4).is_err());
        assert!(r.get_f64_run(3).is_err());
        assert_eq!(r.get_f64_run(2).unwrap(), vec![0.0, 0.0]);
        assert!(r.finished());
    }

    fn f64_bits() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    fn split() -> impl Strategy<Value = Split> {
        any::<bool>().prop_map(|test| if test { Split::Test } else { Split::Train })
    }

    fn tag() -> impl Strategy<Value = Option<String>> {
        prop::option::of("[a-z0-9-]{0,12}")
    }

    /// The `warm-reuse` inference shape, dense examples, and empty and
    /// small sparse vectors.
    fn example() -> impl Strategy<Value = Example> {
        let slim =
            (f64_bits(), split(), f64_bits(), tag()).prop_map(|(label, split, prediction, tag)| {
                Example {
                    features: FeatureVector::Dense(Vec::new()),
                    label: Some(label),
                    split,
                    prediction: Some(prediction),
                    tag,
                }
            });
        let dense = (
            prop::collection::vec(f64_bits(), 0..24),
            prop::option::of(f64_bits()),
            split(),
            prop::option::of(f64_bits()),
            tag(),
        )
            .prop_map(|(d, label, split, prediction, tag)| Example {
                features: FeatureVector::Dense(d),
                label,
                split,
                prediction,
                tag,
            });
        let sparse =
            (any::<u32>(), prop::collection::vec((0u32..1_000, f64_bits()), 0..6), split())
                .prop_map(|(dim, pairs, split)| {
                    let (indices, values) = pairs.into_iter().unzip();
                    Example::new(FeatureVector::Sparse { dim, indices, values }, None, split)
                });
        let empty_sparse = (any::<u32>(), split()).prop_map(|(dim, split)| {
            Example::new(
                FeatureVector::Sparse { dim, indices: Vec::new(), values: Vec::new() },
                Some(0.0),
                split,
            )
        });
        prop_oneof![slim, dense, sparse, empty_sparse]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn example_batches_roundtrip_bitwise(examples in prop::collection::vec(example(), 0..40)) {
            let value = Value::examples(ExampleBatch::dense(examples.clone()));
            let bytes = encode_value(&value);
            let back = decode_value(&bytes).unwrap();
            // Re-encoding is a bitwise comparison of every f64 (NaN
            // payloads included); the field check catches a decoder that
            // drifts in a way the encoder would mirror.
            prop_assert_eq!(encode_value(&back), bytes);
            let decoded = &back.as_collection().unwrap().as_examples().unwrap().examples;
            prop_assert_eq!(decoded.len(), examples.len());
            for (a, b) in decoded.iter().zip(&examples) {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
    }

    #[test]
    fn declared_length_past_u32_boundary_is_rejected_not_truncated() {
        // Regression: `get_len` used to cast the declared u64 to usize
        // BEFORE bounds-checking — on a 32-bit target 2^32 + 3 truncates
        // to 3 and decodes garbage as a valid shorter field. The bound
        // must be checked in u64.
        let mut w = Writer::new();
        w.put_varint((1u64 << 32) + 3);
        w.buf.extend_from_slice(b"abc");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.get_bytes().unwrap_err().to_string();
        assert!(err.contains("exceeds"), "a truncating cast would have returned \"abc\": {err}");
    }

    #[test]
    fn varint_boundaries() {
        let mut w = Writer::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        assert!(r.finished());
    }

    #[test]
    fn zigzag_boundaries() {
        let mut w = Writer::new();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456] {
            w.put_zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456] {
            assert_eq!(r.get_zigzag().unwrap(), v);
        }
    }
}
