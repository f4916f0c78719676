package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.dom.{PageDoc, PageTree, XPaths}

/** Node features for the classifier (§4.2).
  *
  * Structural features follow Vertex [17]: for the node itself, its
  * ancestors, and siblings of those ancestors up to width 5 on either side,
  * we emit (attribute name, attribute value, levels of ancestry, sibling
  * offset) tuples over the tag and the HTML attributes (class, id, itemprop).
  * Sibling *indices* along the ancestor chain are also emitted, which is how
  * the model distinguishes positional sections when class names are generic.
  *
  * Node-text features: strings frequent across the site that appear near the
  * node (within the parent's or grandparent's subtree) yield a (string,
  * level) feature — this is what lets the model find labelled values
  * ("Director:") when the structure alone is ambiguous.
  */
object FeatureGen {

  val SiblingWidth = 5

  /** Site-frequent normalised strings: present on at least `minFrac` of
    * pages (labels, boilerplate, fixed value lists).  A DataFrame
    * aggregation over the corpus; capped to the most frequent `cap`.
    */
  def frequentStrings(
      pages: Dataset[PageDoc],
      minFrac: Double = 0.2,
      cap: Int = 150,
  )(implicit spark: SparkSession): Set[String] = {
    import spark.implicits._
    val nPages = pages.count().toDouble
    if (nPages == 0) return Set.empty
    pages
      .flatMap(p => p.textNodes.map(_.norm).distinct)
      .toDF("s")
      .groupBy("s")
      .count()
      .filter($"count" >= minFrac * nPages)
      .orderBy($"count".desc, $"s")
      .limit(cap)
      .select("s")
      .as[String]
      .collect()
      .toSet
  }

  /** All features of one node. */
  def nodeFeatures(tree: PageTree, id: Int, frequent: Set[String]): Vector[String] = {
    val fs    = Vector.newBuilder[String]
    val chain = id :: tree.ancestors(id) // self at level 0

    def attrFeatures(nodeId: Int, lvl: Int, off: Int): Unit = {
      val n = tree.node(nodeId)
      fs += s"a|$lvl|$off|tag|${n.tag}"
      n.attrs.foreach { case (k, v) => fs += s"a|$lvl|$off|$k|$v" }
    }

    chain.zipWithIndex.foreach { case (nid, lvl) =>
      attrFeatures(nid, lvl, 0)
      // Sibling index of this chain node among its parent's children.
      val n = tree.node(nid)
      if (n.parent >= 0) {
        val sibs = tree.childrenOf(n.parent)
        val pos  = sibs.indexOf(nid)
        fs += s"i|$lvl|$pos"
        sibs.zipWithIndex.foreach { case (sid, sPos) =>
          val off = sPos - pos
          if (off != 0 && math.abs(off) <= SiblingWidth) attrFeatures(sid, lvl, off)
        }
      }
    }

    // Nearby frequent text (parent + grandparent subtrees).
    chain.drop(1).take(2).zipWithIndex.foreach { case (anc, i) =>
      val lvl = i + 1
      tree.subtreeTexts(anc).foreach { tid =>
        if (tid != id) {
          val t = tree.node(tid).norm
          if (frequent.contains(t)) fs += s"t|$lvl|$t"
        }
      }
    }

    // Path template is itself a strong consistency signal.
    fs += s"p|${XPaths.template(tree.node(id).xpath)}"
    fs.result()
  }
}
