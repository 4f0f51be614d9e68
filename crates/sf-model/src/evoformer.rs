//! The Evoformer block: the nine sub-modules of the paper's Figure 2.
//!
//! Shapes throughout: the MSA representation `m` is `[S, R, c_m]` (sequences
//! × residues × channels) and the pair representation `z` is `[R, R, c_z]`.
//!
//! The module order matches AlphaFold Algorithm 6:
//! 1. MSA row-wise gated self-attention **with pair bias**
//! 2. MSA column-wise gated self-attention
//! 3. MSA transition
//! 4. Outer product mean (MSA → pair communication)
//! 5. Triangle multiplicative update, outgoing edges
//! 6. Triangle multiplicative update, incoming edges
//! 7. Triangle self-attention around the starting node
//! 8. Triangle self-attention around the ending node
//! 9. Pair transition
//!
//! Every sub-module is residual. The four projections before each attention
//! (Q, K, V, gate) are bundled through [`crate::linear::batched_apply`] —
//! the paper's "GEMM Batching" — and attention itself is the fused
//! pair-bias kernel from `sf-autograd`/`sf-tensor`.
//!
//! All of the block's heavy kernels (the bundled GEMMs, LayerNorm,
//! softmax, and fused attention) execute on the parallel CPU backend in
//! `sf_tensor::pool`; the thread count comes from `SF_THREADS` or
//! `sf_tensor::pool::set_num_threads`, and results are bit-identical at
//! every thread count, so Evoformer outputs do not depend on parallelism.

use crate::dap::{dap_all_gather, dap_axis_switch, dap_scatter, AxialCollectives};
use crate::linear::{batched_apply, layer_norm, name_seed, Linear};
use sf_autograd::{Graph, ParamStore, Result, Var};

/// Channel dimensions for one Evoformer block instance (the main stack, the
/// extra-MSA stack, and the template pair stack use different widths).
#[derive(Debug, Clone, Copy)]
pub struct BlockDims {
    /// MSA representation channels.
    pub c_m: usize,
    /// Pair representation channels.
    pub c_z: usize,
    /// MSA attention heads.
    pub msa_heads: usize,
    /// Pair attention heads.
    pub pair_heads: usize,
    /// Per-head width for MSA attention.
    pub c_hidden_msa: usize,
    /// Per-head width for pair attention.
    pub c_hidden_pair: usize,
    /// Triangle multiplicative hidden channels.
    pub c_hidden_mul: usize,
    /// Outer-product-mean hidden channels.
    pub c_opm: usize,
    /// Transition expansion factor.
    pub transition_factor: usize,
    /// Dropout probability on attention/triangle outputs (0 disables).
    pub dropout: f32,
    /// Use the fused attention-softmax-gate kernel (vs the composed op
    /// chain) in gated axis attention.
    pub fused: bool,
}

impl BlockDims {
    /// Dimensions of the main Evoformer stack for `cfg`.
    pub fn main(cfg: &crate::ModelConfig) -> Self {
        BlockDims {
            c_m: cfg.c_m,
            c_z: cfg.c_z,
            msa_heads: cfg.msa_heads,
            pair_heads: cfg.pair_heads,
            c_hidden_msa: cfg.c_hidden_msa,
            c_hidden_pair: cfg.c_hidden_pair,
            c_hidden_mul: cfg.c_hidden_mul,
            c_opm: cfg.c_opm,
            transition_factor: cfg.transition_factor,
            dropout: cfg.dropout,
            fused: cfg.fused_kernels,
        }
    }

    /// Dimensions of the extra-MSA stack (narrow MSA channels).
    pub fn extra(cfg: &crate::ModelConfig) -> Self {
        BlockDims {
            c_m: cfg.c_e,
            ..BlockDims::main(cfg)
        }
    }

    /// Dimensions of the template pair stack (pair-only, width `c_t`).
    pub fn template(cfg: &crate::ModelConfig) -> Self {
        BlockDims {
            c_m: cfg.c_t,
            c_z: cfg.c_t,
            ..BlockDims::main(cfg)
        }
    }
}

/// One full Evoformer block. Returns the updated `(m, z)`.
///
/// # Errors
///
/// Propagates shape errors from the underlying tensor ops (a mismatch
/// indicates an inconsistent `dims` / input combination).
pub fn evoformer_block(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
    ckpt: bool,
) -> Result<(Var, Var)> {
    evoformer_block_ext(g, store, dims, prefix, m, z, ckpt, false)
}

/// [`evoformer_block`] with the extra-MSA variant switch: when
/// `global_column` is set, the column attention uses AlphaFold's *global*
/// (mean-query) form — the memory-cheap variant the extra-MSA stack needs
/// for its thousands of sequences.
#[allow(clippy::too_many_arguments)]
pub fn evoformer_block_ext(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
    ckpt: bool,
    global_column: bool,
) -> Result<(Var, Var)> {
    let trans = if ckpt { transition_checkpointed } else { transition };
    let m = msa_row_attention_with_pair_bias(g, store, dims, &format!("{prefix}.msa_row"), m, z)?;
    let m = if global_column {
        msa_global_column_attention(g, store, dims, &format!("{prefix}.msa_col"), m)?
    } else {
        msa_column_attention(g, store, dims, &format!("{prefix}.msa_col"), m)?
    };
    let m = trans(g, store, dims.c_m, dims.transition_factor, &format!("{prefix}.msa_trans"), m)?;
    let z = outer_product_mean(g, store, dims, &format!("{prefix}.opm"), m, z)?;
    let z = triangle_multiplication(g, store, dims, &format!("{prefix}.tri_mul_out"), z, true)?;
    let z = triangle_multiplication(g, store, dims, &format!("{prefix}.tri_mul_in"), z, false)?;
    let z = triangle_attention(g, store, dims, &format!("{prefix}.tri_att_start"), z, true)?;
    let z = triangle_attention(g, store, dims, &format!("{prefix}.tri_att_end"), z, false)?;
    let z = trans(g, store, dims.c_z, dims.transition_factor, &format!("{prefix}.pair_trans"), z)?;
    Ok((m, z))
}

/// [`evoformer_block`] under **Dynamic Axial Parallelism** (ScaleFold
/// §3.3 / FastFold): the four axial attentions run on activation shards —
/// MSA row attention sharded along sequences, MSA column and triangle
/// attention along residues — with the sharded axis switched by the
/// injected executor's all-to-all and results rejoined by its all-gather.
/// The remaining modules (transitions, outer product mean, triangle
/// multiplication) run replicated, as their cost does not grow with the
/// axial length being sharded here.
///
/// With `dropout = 0` the output is bitwise-identical to
/// [`evoformer_block`] for any rank count: every sharded kernel (LN, the
/// bundled QKV-gate GEMM, attention) is row-independent, and all data
/// movement enters the tape through the verified external concat. Under
/// dropout the per-shard masks are rank-salted, so DAP-k > 1 is a
/// *different but equally valid* sample of the dropout noise.
///
/// # Panics
///
/// Panics if the sequence or residue axis is not divisible by the rank
/// count.
///
/// # Errors
///
/// Propagates shape errors from the underlying tensor ops and external
/// value mismatches from the collective executor.
#[allow(clippy::too_many_arguments)]
pub fn evoformer_block_dap(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
    ckpt: bool,
    dap: &dyn AxialCollectives,
) -> Result<(Var, Var)> {
    let trans = if ckpt { transition_checkpointed } else { transition };
    let m = dap_msa_attention(g, store, dims, prefix, m, z, dap)?;
    let m = trans(g, store, dims.c_m, dims.transition_factor, &format!("{prefix}.msa_trans"), m)?;
    let z = outer_product_mean(g, store, dims, &format!("{prefix}.opm"), m, z)?;
    let z = triangle_multiplication(g, store, dims, &format!("{prefix}.tri_mul_out"), z, true)?;
    let z = triangle_multiplication(g, store, dims, &format!("{prefix}.tri_mul_in"), z, false)?;
    let z = dap_triangle_attention(g, store, dims, prefix, z, dap)?;
    let z = trans(g, store, dims.c_z, dims.transition_factor, &format!("{prefix}.pair_trans"), z)?;
    Ok((m, z))
}

/// Modules 1 + 2 under DAP: row attention on sequence shards, one axis
/// switch, column attention on residue shards, one all-gather back to the
/// replicated `[S, R, c_m]` layout for the (unsharded) MSA transition.
fn dap_msa_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
    dap: &dyn AxialCollectives,
) -> Result<Var> {
    let k = dap.ranks();
    let row_prefix = format!("{prefix}.msa_row");
    let col_prefix = format!("{prefix}.msa_col");
    // The pair bias is shared by every rank's row attention (it indexes
    // residues only), so it is computed once from the replicated z.
    let z_ln = layer_norm(g, store, &format!("{row_prefix}.ln_z"), dims.c_z, z)?;
    let bias_rr = Linear::no_bias(format!("{row_prefix}.pair_bias"), dims.c_z, dims.msa_heads)
        .apply(g, store, z_ln)?;
    let bias = g.permute(bias_rr, &[2, 0, 1])?;

    // Row attention on sequence shards [S/k, R, c_m]. Parameter prefixes
    // are identical across ranks: each rank binds the same weights, and
    // `grads_by_name` sums the per-rank weight gradients — the same
    // reduction DAP performs over its gradient all-reduce.
    let m_shards = dap_scatter(g, m, k)?;
    let mut row_out = Vec::with_capacity(k);
    for (rank, &sh) in m_shards.iter().enumerate() {
        let m_ln = layer_norm(g, store, &format!("{row_prefix}.ln_m"), dims.c_m, sh)?;
        let att = gated_axis_attention(
            g,
            store,
            &row_prefix,
            m_ln,
            Some(bias),
            dims.c_m,
            dims.msa_heads,
            dims.c_hidden_msa,
            dims.fused,
        )?;
        row_out.push(dropout_residual_ranked(g, dims, &row_prefix, rank, sh, att)?);
    }

    // Axis switch: sequence-sharded -> residue-sharded [R/k, S, c_m].
    let col_shards = dap_axis_switch(g, dap, &row_out)?;
    let mut col_out = Vec::with_capacity(k);
    for &sh in &col_shards {
        let ln = layer_norm(g, store, &format!("{col_prefix}.ln"), dims.c_m, sh)?;
        let att = gated_axis_attention(
            g,
            store,
            &col_prefix,
            ln,
            None,
            dims.c_m,
            dims.msa_heads,
            dims.c_hidden_msa,
            dims.fused,
        )?;
        // Column attention has no dropout in the unsharded path either.
        col_out.push(g.add(sh, att)?);
    }
    let full = dap_all_gather(g, dap, &col_out)?; // [R, S, c_m]
    g.permute(full, &[1, 0, 2])
}

/// Modules 7 + 8 under DAP: starting-node attention on row shards of the
/// pair tensor, one axis switch to the transposed layout, an all-gather
/// (the ending-node LayerNorm and triangle bias need the full transposed
/// tensor), ending-node attention on shards, and a final gather +
/// transpose back.
fn dap_triangle_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
    dap: &dyn AxialCollectives,
) -> Result<Var> {
    let k = dap.ranks();
    let start_p = format!("{prefix}.tri_att_start");
    let end_p = format!("{prefix}.tri_att_end");

    // Starting node: shard along the first residue axis.
    let z_ln = layer_norm(g, store, &format!("{start_p}.ln"), dims.c_z, z)?;
    let bias_rr = Linear::no_bias(format!("{start_p}.tri_bias"), dims.c_z, dims.pair_heads)
        .apply(g, store, z_ln)?;
    let bias = g.permute(bias_rr, &[2, 0, 1])?;
    let ln_shards = dap_scatter(g, z_ln, k)?;
    let z_shards = dap_scatter(g, z, k)?;
    let mut start_out = Vec::with_capacity(k);
    for rank in 0..k {
        let att = gated_axis_attention(
            g,
            store,
            &start_p,
            ln_shards[rank],
            Some(bias),
            dims.c_z,
            dims.pair_heads,
            dims.c_hidden_pair,
            dims.fused,
        )?;
        start_out.push(dropout_residual_ranked(g, dims, &start_p, rank, z_shards[rank], att)?);
    }

    // Switch to the transposed layout, then gather: the ending-node bias
    // is a function of the full transposed pair tensor.
    let end_in = dap_axis_switch(g, dap, &start_out)?; // [R/k, R, c_z], transposed
    let zp = dap_all_gather(g, dap, &end_in)?; // [R, R, c_z], transposed
    let zp_ln = layer_norm(g, store, &format!("{end_p}.ln"), dims.c_z, zp)?;
    let bias2_rr = Linear::no_bias(format!("{end_p}.tri_bias"), dims.c_z, dims.pair_heads)
        .apply(g, store, zp_ln)?;
    let bias2 = g.permute(bias2_rr, &[2, 0, 1])?;
    let ln2_shards = dap_scatter(g, zp_ln, k)?;
    let mut end_out = Vec::with_capacity(k);
    for rank in 0..k {
        let att = gated_axis_attention(
            g,
            store,
            &end_p,
            ln2_shards[rank],
            Some(bias2),
            dims.c_z,
            dims.pair_heads,
            dims.c_hidden_pair,
            dims.fused,
        )?;
        end_out.push(dropout_residual_ranked(g, dims, &end_p, rank, end_in[rank], att)?);
    }
    let zp_out = dap_all_gather(g, dap, &end_out)?;
    g.permute(zp_out, &[1, 0, 2])
}

/// [`dropout_residual`] with a rank-salted seed: each DAP rank draws its
/// own mask, exactly as real per-device dropout would.
fn dropout_residual_ranked(
    g: &mut Graph,
    dims: &BlockDims,
    prefix: &str,
    rank: usize,
    residual: Var,
    update: Var,
) -> Result<Var> {
    let update = if dims.dropout > 0.0 {
        let seed = name_seed(prefix) ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        g.dropout(update, dims.dropout, seed)?
    } else {
        update
    };
    g.add(residual, update)
}

/// A pair-only Evoformer block (modules 5-9), used by the template pair
/// stack which has no MSA track.
///
/// # Errors
///
/// Propagates shape errors from the underlying tensor ops.
pub fn pair_block(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
) -> Result<Var> {
    let z = triangle_multiplication(g, store, dims, &format!("{prefix}.tri_mul_out"), z, true)?;
    let z = triangle_multiplication(g, store, dims, &format!("{prefix}.tri_mul_in"), z, false)?;
    let z = triangle_attention(g, store, dims, &format!("{prefix}.tri_att_start"), z, true)?;
    let z = triangle_attention(g, store, dims, &format!("{prefix}.tri_att_end"), z, false)?;
    transition(g, store, dims.c_z, dims.transition_factor, &format!("{prefix}.pair_trans"), z)
}

/// Shared gated-attention plumbing: projects `x` (`[B1, B2, c_in]`) to
/// per-head Q/K/V/gate, runs fused attention over the second axis with an
/// optional `[h, B2, B2]` bias, gates, and projects back to `c_in`.
#[allow(clippy::too_many_arguments)]
fn gated_axis_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &str,
    x: Var,
    bias: Option<Var>,
    c_in: usize,
    heads: usize,
    c_hidden: usize,
    fused: bool,
) -> Result<Var> {
    let hd = heads * c_hidden;
    let q_proj = Linear::no_bias(format!("{prefix}.q"), c_in, hd);
    let k_proj = Linear::no_bias(format!("{prefix}.k"), c_in, hd);
    let v_proj = Linear::no_bias(format!("{prefix}.v"), c_in, hd);
    let gate_proj = Linear::new(format!("{prefix}.gate"), c_in, hd);
    // GEMM batching: the four projections share one bundled GEMM.
    let outs = batched_apply(g, store, &[&q_proj, &k_proj, &v_proj, &gate_proj], x)?;
    let (q, k, v, gate) = (outs[0], outs[1], outs[2], outs[3]);

    let in_dims = g.value(x).dims().to_vec();
    let (b1, b2) = (in_dims[0], in_dims[1]);
    // [B1, B2, h*d] -> [B1, h, B2, d]
    let to_heads = |g: &mut Graph, t: Var| -> Result<Var> {
        let r = g.reshape(t, &[b1, b2, heads, c_hidden])?;
        g.permute(r, &[0, 2, 1, 3])
    };
    let qh = to_heads(g, q)?;
    let kh = to_heads(g, k)?;
    let vh = to_heads(g, v)?;
    let gh = to_heads(g, gate)?;
    let scale = 1.0 / (c_hidden as f32).sqrt();
    let gated = if fused {
        // One kernel: scale + pair bias + online softmax + sigmoid gate,
        // with softmax-backward folded into the attention grad.
        g.attention_fused(qh, kh, vh, bias, None, Some(gh), scale)?
    } else {
        // Composed escape hatch (`--no-fused`): the seed-era op chain,
        // kept for A/B comparison and debugging.
        let att = g.attention(qh, kh, vh, bias, scale)?;
        let gsig = g.sigmoid(gh)?;
        g.mul(gsig, att)?
    };
    let back = g.permute(gated, &[0, 2, 1, 3])?;
    let flat = g.reshape(back, &[b1, b2, hd])?;
    Linear::new(format!("{prefix}.out"), hd, c_in).apply(g, store, flat)
}

/// Applies dropout (when enabled) then the residual connection — AlphaFold
/// drops attention and triangle-update outputs before adding them back.
fn dropout_residual(
    g: &mut Graph,
    dims: &BlockDims,
    prefix: &str,
    residual: Var,
    update: Var,
) -> Result<Var> {
    let update = if dims.dropout > 0.0 {
        g.dropout(update, dims.dropout, name_seed(prefix))?
    } else {
        update
    };
    g.add(residual, update)
}

/// Module 1: MSA row-wise gated self-attention with pair bias.
pub fn msa_row_attention_with_pair_bias(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
) -> Result<Var> {
    let m_ln = layer_norm(g, store, &format!("{prefix}.ln_m"), dims.c_m, m)?;
    let z_ln = layer_norm(g, store, &format!("{prefix}.ln_z"), dims.c_z, z)?;
    // Pair bias: [R, R, c_z] -> [R, R, h] -> [h, R, R].
    let bias_rr =
        Linear::no_bias(format!("{prefix}.pair_bias"), dims.c_z, dims.msa_heads)
            .apply(g, store, z_ln)?;
    let bias = g.permute(bias_rr, &[2, 0, 1])?;
    let att = gated_axis_attention(
        g,
        store,
        prefix,
        m_ln,
        Some(bias),
        dims.c_m,
        dims.msa_heads,
        dims.c_hidden_msa,
        dims.fused,
    )?;
    dropout_residual(g, dims, prefix, m, att)
}

/// Module 2: MSA column-wise gated self-attention (attends over sequences).
pub fn msa_column_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
) -> Result<Var> {
    let m_ln = layer_norm(g, store, &format!("{prefix}.ln"), dims.c_m, m)?;
    // Transpose so the attended axis (sequences) is axis 1: [R, S, c_m].
    let mt = g.permute(m_ln, &[1, 0, 2])?;
    let att = gated_axis_attention(
        g,
        store,
        prefix,
        mt,
        None,
        dims.c_m,
        dims.msa_heads,
        dims.c_hidden_msa,
        dims.fused,
    )?;
    let back = g.permute(att, &[1, 0, 2])?;
    g.add(m, back)
}

/// Extra-MSA variant of module 2: **global** column attention (AlphaFold
/// Algorithm 19). One mean-pooled query per column attends over the
/// thousands of extra sequences, so the logits are `O(S)` per column rather
/// than `O(S²)`; each sequence then gates the shared attention output.
pub fn msa_global_column_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
) -> Result<Var> {
    let (s, r) = {
        let d = g.value(m).dims();
        (d[0], d[1])
    };
    let heads = dims.msa_heads;
    let hd = heads * dims.c_hidden_msa;
    let m_ln = layer_norm(g, store, &format!("{prefix}.ln"), dims.c_m, m)?;
    let q_proj = Linear::no_bias(format!("{prefix}.q"), dims.c_m, hd);
    let k_proj = Linear::no_bias(format!("{prefix}.k"), dims.c_m, hd);
    let v_proj = Linear::no_bias(format!("{prefix}.v"), dims.c_m, hd);
    let gate_proj = Linear::new(format!("{prefix}.gate"), dims.c_m, hd);
    let outs = batched_apply(g, store, &[&q_proj, &k_proj, &v_proj, &gate_proj], m_ln)?;
    let (q, k, v, gate) = (outs[0], outs[1], outs[2], outs[3]);

    // Global query: mean over the sequence axis -> one query per column,
    // laid out [R, hd] -> [R, heads, d] -> [R, heads, 1, d].
    let q_mean = g.mean_axis(q, 0)?; // [R, hd]
    let qh = {
        let r1 = g.reshape(q_mean, &[r, heads, dims.c_hidden_msa])?;
        g.reshape(r1, &[r, heads, 1, dims.c_hidden_msa])?
    };
    // Keys/values: [S, R, hd] -> [R, heads, S, d].
    let to_kv = |g: &mut Graph, t: Var| -> Result<Var> {
        let r4 = g.reshape(t, &[s, r, heads, dims.c_hidden_msa])?;
        g.permute(r4, &[1, 2, 0, 3])
    };
    let kh = to_kv(g, k)?;
    let vh = to_kv(g, v)?;
    let scale = 1.0 / (dims.c_hidden_msa as f32).sqrt();
    let att = g.attention(qh, kh, vh, None, scale)?; // [R, heads, 1, d]
    let att_flat = g.reshape(att, &[r, hd])?;
    // Per-sequence gating of the shared column output.
    let gsig = g.sigmoid(gate)?; // [S, R, hd]
    let gated = g.mul(gsig, att_flat)?; // broadcast over S
    let out = Linear::new(format!("{prefix}.out"), hd, dims.c_m).apply(g, store, gated)?;
    dropout_residual(g, dims, prefix, m, out)
}

/// Modules 3 & 9: the two-layer transition (feed-forward) block,
/// `x + W2 relu(W1 LN(x))`.
pub fn transition(
    g: &mut Graph,
    store: &mut ParamStore,
    c: usize,
    factor: usize,
    prefix: &str,
    x: Var,
) -> Result<Var> {
    let ln = layer_norm(g, store, &format!("{prefix}.ln"), c, x)?;
    let h = Linear::new(format!("{prefix}.fc1"), c, c * factor).apply(g, store, ln)?;
    let a = g.relu(h)?;
    let out = Linear::new(format!("{prefix}.fc2"), c * factor, c).apply(g, store, a)?;
    g.add(x, out)
}

/// Gradient-checkpointed variant of [`transition`]: the segment's
/// intermediate activations (the `factor×`-expanded hidden layer — the
/// largest activations in the block) are not retained; backward re-runs the
/// segment. This is OpenFold's memory workaround that ScaleFold disables
/// once DAP frees enough memory (§4.1).
pub fn transition_checkpointed(
    g: &mut Graph,
    store: &mut ParamStore,
    c: usize,
    factor: usize,
    prefix: &str,
    x: Var,
) -> Result<Var> {
    // Bind all parameters as explicit checkpoint inputs so their gradients
    // flow out of the re-executed segment.
    let gamma =
        g.use_param_or_init(store, &format!("{prefix}.ln.gamma"), || sf_tensor::Tensor::ones(&[c]));
    let beta =
        g.use_param_or_init(store, &format!("{prefix}.ln.beta"), || sf_tensor::Tensor::zeros(&[c]));
    let w1_name = format!("{prefix}.fc1.weight");
    let w1 = g.use_param_or_init(store, &w1_name, {
        let n = w1_name.clone();
        move || sf_tensor::Tensor::lecun_normal(&[c * factor, c], c, name_seed(&n))
    });
    let b1 = g.use_param_or_init(store, &format!("{prefix}.fc1.bias"), || {
        sf_tensor::Tensor::zeros(&[c * factor])
    });
    let w2_name = format!("{prefix}.fc2.weight");
    let w2 = g.use_param_or_init(store, &w2_name, {
        let n = w2_name.clone();
        move || sf_tensor::Tensor::lecun_normal(&[c, c * factor], c * factor, name_seed(&n))
    });
    let b2 = g.use_param_or_init(store, &format!("{prefix}.fc2.bias"), || {
        sf_tensor::Tensor::zeros(&[c])
    });
    g.checkpoint(&[x, gamma, beta, w1, b1, w2, b2], |sub, ins| {
        let [x, gamma, beta, w1, b1, w2, b2] = *ins else {
            unreachable!("checkpoint passes inputs through unchanged");
        };
        let ln = sub.layer_norm(x, gamma, beta)?;
        let w1t = sub.permute(w1, &[1, 0])?;
        let h0 = sub.matmul(ln, w1t)?;
        let h = sub.add(h0, b1)?;
        let a = sub.relu(h)?;
        let w2t = sub.permute(w2, &[1, 0])?;
        let o0 = sub.matmul(a, w2t)?;
        let o = sub.add(o0, b2)?;
        sub.add(x, o)
    })
}

/// Module 4: outer product mean — the MSA→pair communication channel.
/// `o[i,j] = mean_s a[s,i] ⊗ b[s,j]`, projected to `c_z`.
pub fn outer_product_mean(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
) -> Result<Var> {
    let (s, r) = {
        let d = g.value(m).dims();
        (d[0], d[1])
    };
    let c = dims.c_opm;
    let m_ln = layer_norm(g, store, &format!("{prefix}.ln"), dims.c_m, m)?;
    let a = Linear::new(format!("{prefix}.a"), dims.c_m, c).apply(g, store, m_ln)?;
    let b = Linear::new(format!("{prefix}.b"), dims.c_m, c).apply(g, store, m_ln)?;
    // einsum('sic,sjd->ijcd') via one GEMM: [R*c, S] @ [S, R*c] = [R*c, R*c].
    let a2 = g.reshape(a, &[s, r * c])?;
    let b2 = g.reshape(b, &[s, r * c])?;
    let at = g.permute(a2, &[1, 0])?;
    let big = g.matmul(at, b2)?; // [R*c, R*c]
    let o4 = g.reshape(big, &[r, c, r, c])?;
    let o = g.permute(o4, &[0, 2, 1, 3])?; // [R, R, c, c]
    let flat = g.reshape(o, &[r, r, c * c])?;
    let mean = g.scale(flat, 1.0 / s as f32)?;
    let proj = Linear::new(format!("{prefix}.out"), c * c, dims.c_z).apply(g, store, mean)?;
    g.add(z, proj)
}

/// Modules 5 & 6: triangle multiplicative update.
/// Outgoing: `o[i,j] = Σ_k a[i,k] ⊙ b[j,k]`; incoming: `Σ_k a[k,i] ⊙ b[k,j]`.
pub fn triangle_multiplication(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
    outgoing: bool,
) -> Result<Var> {
    let c = dims.c_hidden_mul;
    let z_ln = layer_norm(g, store, &format!("{prefix}.ln_in"), dims.c_z, z)?;
    let gated_proj = |g: &mut Graph, store: &mut ParamStore, which: &str| -> Result<Var> {
        let p = Linear::new(format!("{prefix}.{which}_proj"), dims.c_z, c).apply(g, store, z_ln)?;
        let gt = Linear::new(format!("{prefix}.{which}_gate"), dims.c_z, c).apply(g, store, z_ln)?;
        let sg = g.sigmoid(gt)?;
        g.mul(sg, p)
    };
    let a = gated_proj(g, store, "a")?;
    let b = gated_proj(g, store, "b")?;
    // Channel-major [c, R, R] so each channel is an R×R matrix product.
    let ac = g.permute(a, &[2, 0, 1])?;
    let bc = g.permute(b, &[2, 0, 1])?;
    let prod = if outgoing {
        // einsum('cik,cjk->cij') = A · Bᵀ
        let bt = g.permute(bc, &[0, 2, 1])?;
        g.matmul(ac, bt)?
    } else {
        // einsum('cki,ckj->cij') = Aᵀ · B
        let at = g.permute(ac, &[0, 2, 1])?;
        g.matmul(at, bc)?
    };
    let back = g.permute(prod, &[1, 2, 0])?; // [R, R, c]
    let ln_out = layer_norm(g, store, &format!("{prefix}.ln_out"), c, back)?;
    let proj = Linear::new(format!("{prefix}.out"), c, dims.c_z).apply(g, store, ln_out)?;
    let out_gate =
        Linear::new(format!("{prefix}.out_gate"), dims.c_z, dims.c_z).apply(g, store, z_ln)?;
    let og = g.sigmoid(out_gate)?;
    let gated = g.mul(og, proj)?;
    dropout_residual(g, dims, prefix, z, gated)
}

/// Modules 7 & 8: triangle self-attention around the starting / ending node.
pub fn triangle_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
    starting: bool,
) -> Result<Var> {
    // Ending-node attention is starting-node attention on the transposed
    // pair tensor.
    let zin = if starting { z } else { g.permute(z, &[1, 0, 2])? };
    let z_ln = layer_norm(g, store, &format!("{prefix}.ln"), dims.c_z, zin)?;
    // Triangle bias: logits(i; j->k) += linear(z_ln[j,k]).
    let bias_rr = Linear::no_bias(format!("{prefix}.tri_bias"), dims.c_z, dims.pair_heads)
        .apply(g, store, z_ln)?;
    let bias = g.permute(bias_rr, &[2, 0, 1])?;
    let att = gated_axis_attention(
        g,
        store,
        prefix,
        z_ln,
        Some(bias),
        dims.c_z,
        dims.pair_heads,
        dims.c_hidden_pair,
        dims.fused,
    )?;
    let att = if starting { att } else { g.permute(att, &[1, 0, 2])? };
    dropout_residual(g, dims, prefix, z, att)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use sf_tensor::Tensor;

    fn setup() -> (Graph, ParamStore, BlockDims, Var, Var) {
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::main(&cfg);
        let mut g = Graph::new();
        let store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 1).mul_scalar(0.3));
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 2).mul_scalar(0.3));
        (g, store, dims, m, z)
    }

    #[test]
    fn block_preserves_shapes() {
        let (mut g, mut store, dims, m, z) = setup();
        let m_dims = g.value(m).dims().to_vec();
        let z_dims = g.value(z).dims().to_vec();
        let (m2, z2) = evoformer_block(&mut g, &mut store, &dims, "blk0", m, z, false).unwrap();
        assert_eq!(g.value(m2).dims(), m_dims.as_slice());
        assert_eq!(g.value(z2).dims(), z_dims.as_slice());
        assert!(!g.value(m2).has_non_finite());
        assert!(!g.value(z2).has_non_finite());
    }

    #[test]
    fn block_output_differs_from_input() {
        let (mut g, mut store, dims, m, z) = setup();
        let (m2, z2) = evoformer_block(&mut g, &mut store, &dims, "blk0", m, z, false).unwrap();
        assert!(!g.value(m2).allclose(g.value(m), 1e-6));
        assert!(!g.value(z2).allclose(g.value(z), 1e-6));
    }

    #[test]
    fn gradients_reach_all_block_params() {
        let (mut g, mut store, dims, m, z) = setup();
        let (m2, z2) = evoformer_block(&mut g, &mut store, &dims, "b", m, z, false).unwrap();
        let lm = g.sum_all(m2).unwrap();
        let lz = g.sum_all(z2).unwrap();
        let loss = g.add(lm, lz).unwrap();
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        // Every registered parameter must receive a gradient entry.
        for name in store.names() {
            assert!(grads.contains_key(&name), "no grad for {name}");
        }
        // And the critical paths must be non-zero.
        assert!(grads["b.msa_row.pair_bias.weight"].norm() > 0.0);
        assert!(grads["b.tri_mul_out.a_proj.weight"].norm() > 0.0);
        assert!(grads["b.opm.out.weight"].norm() > 0.0);
    }

    #[test]
    fn pair_bias_affects_msa_track() {
        // Zeroing z must change the row-attention output (bias path alive).
        let (mut g, mut store, dims, m, z) = setup();
        let out1 =
            msa_row_attention_with_pair_bias(&mut g, &mut store, &dims, "pb", m, z).unwrap();
        let z0 = g.constant(Tensor::zeros(g.value(z).dims()));
        let out2 =
            msa_row_attention_with_pair_bias(&mut g, &mut store, &dims, "pb", m, z0).unwrap();
        assert!(!g.value(out1).allclose(g.value(out2), 1e-7));
    }

    #[test]
    fn triangle_mult_outgoing_vs_incoming_differ() {
        let (mut g, mut store, dims, _m, z) = setup();
        let o = triangle_multiplication(&mut g, &mut store, &dims, "tm", z, true).unwrap();
        let i = triangle_multiplication(&mut g, &mut store, &dims, "tm", z, false).unwrap();
        assert!(!g.value(o).allclose(g.value(i), 1e-7));
    }

    #[test]
    fn outer_product_mean_matches_reference() {
        // Direct check of the einsum('sic,sjd->ijcd')/S rearrangement on a
        // minimal case, against a quadruple loop.
        let (s, r, c_m, c) = (2usize, 3usize, 4usize, 2usize);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let dims = BlockDims {
            c_m,
            c_z: 3,
            msa_heads: 1,
            pair_heads: 1,
            c_hidden_msa: 2,
            c_hidden_pair: 2,
            c_hidden_mul: 2,
            c_opm: c,
            transition_factor: 2,
            dropout: 0.0,
            fused: true,
        };
        let m0 = Tensor::randn(&[s, r, c_m], 7);
        let z0 = Tensor::zeros(&[r, r, 3]);
        let m = g.constant(m0);
        let z = g.constant(z0);
        let out = outer_product_mean(&mut g, &mut store, &dims, "opm", m, z).unwrap();
        assert_eq!(g.value(out).dims(), &[r, r, 3]);

        // Reference: recompute o from the bound a/b projections, then apply
        // the stored output projection.
        let m_lnv = {
            let mut g2 = Graph::new();
            let mv = g2.constant(g.value(m).clone());
            let ln = layer_norm(&mut g2, &mut store, "opm.ln", c_m, mv).unwrap();
            g2.value(ln).clone()
        };
        let apply_lin = |name: &str, x: &Tensor, out_dim: usize| -> Tensor {
            let w = store.get(&format!("{name}.weight")).unwrap();
            let b = store.get(&format!("{name}.bias")).unwrap();
            let flat = x.reshape(&[s * r, c_m]).unwrap();
            flat.matmul_bt(w)
                .unwrap()
                .add(b)
                .unwrap()
                .reshape(&[s, r, out_dim])
                .unwrap()
        };
        let av = apply_lin("opm.a", &m_lnv, c);
        let bv = apply_lin("opm.b", &m_lnv, c);
        let mut o = Tensor::zeros(&[r, r, c * c]);
        for i in 0..r {
            for j in 0..r {
                for ci in 0..c {
                    for cj in 0..c {
                        let mut acc = 0.0;
                        for si in 0..s {
                            acc += av.at(&[si, i, ci]).unwrap() * bv.at(&[si, j, cj]).unwrap();
                        }
                        o.set(&[i, j, ci * c + cj], acc / s as f32).unwrap();
                    }
                }
            }
        }
        let w = store.get("opm.out.weight").unwrap();
        let bb = store.get("opm.out.bias").unwrap();
        let expect = o
            .reshape(&[r * r, c * c])
            .unwrap()
            .matmul_bt(w)
            .unwrap()
            .add(bb)
            .unwrap()
            .reshape(&[r, r, 3])
            .unwrap();
        assert!(g.value(out).allclose(&expect, 1e-4));
    }

    #[test]
    fn global_column_attention_shapes_and_grads() {
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::extra(&cfg);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m = g.constant(
            Tensor::randn(&[cfg.n_extra_seq, cfg.n_res, cfg.c_e], 41).mul_scalar(0.3),
        );
        let out = msa_global_column_attention(&mut g, &mut store, &dims, "gc", m).unwrap();
        assert_eq!(g.value(out).dims(), &[cfg.n_extra_seq, cfg.n_res, cfg.c_e]);
        assert!(!g.value(out).has_non_finite());
        let loss = g.sum_all(out).unwrap();
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        for name in store.names() {
            assert!(grads.contains_key(&name), "no grad for {name}");
        }
    }

    #[test]
    fn global_column_attention_is_cheaper_than_full() {
        // The point of the global variant: tape activation bytes scale O(S)
        // for the logits instead of O(S^2).
        let mut cfg = ModelConfig::tiny();
        cfg.n_extra_seq = 32; // exaggerate the sequence axis
        let dims = BlockDims::extra(&cfg);
        let m0 = Tensor::randn(&[cfg.n_extra_seq, cfg.n_res, cfg.c_e], 42).mul_scalar(0.3);

        let mut g1 = Graph::new();
        let mut store = ParamStore::new();
        let m1 = g1.constant(m0.clone());
        let _ = msa_global_column_attention(&mut g1, &mut store, &dims, "gc", m1).unwrap();

        let mut g2 = Graph::new();
        let m2 = g2.constant(m0);
        let _ = msa_column_attention(&mut g2, &mut store, &dims, "fc", m2).unwrap();
        assert!(
            g1.activation_bytes() < g2.activation_bytes(),
            "global {} vs full {}",
            g1.activation_bytes(),
            g2.activation_bytes()
        );
    }

    #[test]
    fn dropout_changes_outputs_but_preserves_shapes() {
        let cfg = ModelConfig::tiny();
        let mut dims = BlockDims::main(&cfg);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 31).mul_scalar(0.3));
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 32).mul_scalar(0.3));
        let (m_dry, z_dry) = evoformer_block(&mut g, &mut store, &dims, "d", m, z, false).unwrap();
        dims.dropout = 0.3;
        let (m_wet, z_wet) = evoformer_block(&mut g, &mut store, &dims, "d", m, z, false).unwrap();
        assert_eq!(g.value(m_wet).dims(), g.value(m_dry).dims());
        assert!(!g.value(m_wet).allclose(g.value(m_dry), 1e-7));
        assert!(!g.value(z_wet).allclose(g.value(z_dry), 1e-7));
        assert!(!g.value(m_wet).has_non_finite());
    }

    #[test]
    fn dap_block_matches_unsharded_bitwise() {
        // With dropout off, the DAP block must reproduce the unsharded
        // block exactly (forward values), for every rank count dividing
        // both axes, fused and composed attention alike.
        for fused in [true, false] {
            let cfg = ModelConfig::tiny();
            let mut dims = BlockDims::main(&cfg);
            dims.fused = fused;
            let m0 = Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 5).mul_scalar(0.3);
            let z0 = Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 6).mul_scalar(0.3);

            let mut g_ref = Graph::new();
            let mut store = ParamStore::new();
            let m = g_ref.constant(m0.clone());
            let z = g_ref.constant(z0.clone());
            let (mr, zr) =
                evoformer_block(&mut g_ref, &mut store, &dims, "blk", m, z, false).unwrap();
            let (m_ref, z_ref) = (g_ref.value(mr).clone(), g_ref.value(zr).clone());

            for k in [1usize, 2, 4] {
                let mut g = Graph::new();
                let mut store_k = ParamStore::new();
                let m = g.constant(m0.clone());
                let z = g.constant(z0.clone());
                let dap = crate::dap::LocalAxial(k);
                let (mk, zk) =
                    evoformer_block_dap(&mut g, &mut store_k, &dims, "blk", m, z, false, &dap)
                        .unwrap();
                assert_eq!(
                    g.value(mk).data(),
                    m_ref.data(),
                    "fused={fused} k={k}: MSA track diverged"
                );
                assert_eq!(
                    g.value(zk).data(),
                    z_ref.data(),
                    "fused={fused} k={k}: pair track diverged"
                );
            }
        }
    }

    #[test]
    fn dap_block_gradients_match_unsharded() {
        // Weight gradients accumulate per-rank (summed by name), so they
        // match the unsharded single-GEMM reduction to fp tolerance.
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::main(&cfg);
        let m0 = Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 8).mul_scalar(0.3);
        let z0 = Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 9).mul_scalar(0.3);

        let run = |k: Option<usize>| {
            let mut g = Graph::new();
            let mut store = ParamStore::new();
            let m = g.constant(m0.clone());
            let z = g.constant(z0.clone());
            let (m2, z2) = match k {
                None => evoformer_block(&mut g, &mut store, &dims, "b", m, z, false).unwrap(),
                Some(k) => {
                    let dap = crate::dap::LocalAxial(k);
                    evoformer_block_dap(&mut g, &mut store, &dims, "b", m, z, false, &dap)
                        .unwrap()
                }
            };
            // O(1)-scale loss (like the real training losses) so the 1e-5
            // equivalence tolerance is meaningful.
            let lm = g.mean_all(m2).unwrap();
            let lz = g.mean_all(z2).unwrap();
            let loss = g.add(lm, lz).unwrap();
            g.backward(loss).unwrap();
            g.grads_by_name().unwrap()
        };
        let g_ref = run(None);
        for k in [1usize, 2, 4] {
            let g_k = run(Some(k));
            assert_eq!(g_ref.len(), g_k.len(), "k={k}: parameter set differs");
            for (name, gr) in &g_ref {
                // Elementwise |a-b| <= 1e-5 (+relative): the contract's
                // tolerance. Differences come only from per-rank gradient
                // accumulation order (and pure-cancellation residues like
                // the pair-bias LN beta, whose true gradient is ~0 since a
                // uniform logit shift leaves softmax invariant).
                assert!(
                    gr.allclose(&g_k[name], 1e-5),
                    "k={k}: gradient mismatch at {name}"
                );
            }
        }
    }

    #[test]
    fn pair_block_runs() {
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::template(&cfg);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_t], 9).mul_scalar(0.2));
        let z2 = pair_block(&mut g, &mut store, &dims, "tpl", z).unwrap();
        assert_eq!(g.value(z2).dims(), g.value(z).dims());
        assert!(!g.value(z2).has_non_finite());
    }
}
