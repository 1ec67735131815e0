/**
 * @file
 * Shape inference: computes the output shape of an operator from its
 * input shapes and attributes.  Shared by GraphBuilder (construction-time
 * checking) and the graph verifier.
 */
#ifndef SMARTMEM_IR_SHAPE_INFER_H
#define SMARTMEM_IR_SHAPE_INFER_H

#include <vector>

#include "ir/attrs.h"
#include "ir/op_kind.h"
#include "ir/shape.h"

namespace smartmem::ir {

/**
 * Infer the output shape.  Throws FatalError for an input count
 * outside the kind's OpInfo range and for inconsistent inputs (e.g.
 * reshape element-count mismatch, conv channel mismatch).
 */
Shape inferShape(OpKind kind, const std::vector<Shape> &inputs,
                 const Attrs &attrs);

} // namespace smartmem::ir

#endif // SMARTMEM_IR_SHAPE_INFER_H
