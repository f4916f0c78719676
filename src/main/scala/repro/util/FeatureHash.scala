package repro.util

import scala.util.hashing.MurmurHash3

/** Hashing-trick encoder: string features → indices of a fixed-dimension
  * sparse vector, the standard way to feed open vocabularies (our structural
  * and text features, §4.2) into a linear model without a driver-side
  * dictionary.
  */
object FeatureHash {

  /** Dimension of the hashed feature space. 2^16 keeps collision rates
    * negligible at our feature counts (a few hundred active per node).
    */
  val Dim: Int = 1 << 16

  def indexOf(feature: String): Int = {
    val h = MurmurHash3.stringHash(feature, 0x9747b28c)
    math.floorMod(h, Dim)
  }

  /** Binary sparse encoding: the sorted distinct indices of the active
    * coordinates, each with value 1.0.  Duplicate features (hash collisions
    * within one node) collapse to a single active coordinate, which is what
    * binary bag-of-features means.
    */
  def encode(features: Iterable[String]): Array[Int] =
    features.iterator.map(indexOf).toArray.distinct.sorted
}
