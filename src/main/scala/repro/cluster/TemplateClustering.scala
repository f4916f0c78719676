package repro.cluster

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.dom.{PageDoc, XPaths}

/** Vertex-style page-template clustering (§2.1: "we first apply the
  * clustering algorithm in [17] to cluster the webpages such that each
  * cluster roughly corresponds to a template").
  *
  * Each page is summarised by its set of index-stripped XPaths (its template
  * skeleton); greedy leader clustering assigns a page to the first existing
  * cluster whose leader signature has Jaccard similarity >= `threshold`,
  * else starts a new cluster.  Signatures are collected to the driver (they
  * are tiny — tens of strings per page); the cluster id is joined back into
  * the Dataset.
  *
  * Like the paper's strict Vertex implementation, this is imperfect by
  * design: structurally similar detail/non-detail pages can land in one
  * cluster (§5.5.1 "Disjoint webpages"), which the long-tail experiment
  * exercises deliberately.
  */
object TemplateClustering {

  /** Jaccard similarity at which a page joins a cluster's leader (§2.1). */
  val Threshold = 0.45

  /** Driver-side clustering of (pageId, signature) pairs; returns pageId -> cluster. */
  def clusterSignatures(
      sigs: Vector[(String, Set[String])],
      threshold: Double,
  ): Map[String, Int] = {
    val leaders = collection.mutable.ArrayBuffer.empty[Set[String]]
    val assign  = Map.newBuilder[String, Int]
    sigs.foreach { case (pid, sig) =>
      val hit = leaders.indexWhere { l =>
        val inter = (l & sig).size
        inter.toDouble / (l.size + sig.size - inter) >= threshold
      }
      if (hit >= 0) assign += pid -> hit
      else { leaders += sig; assign += pid -> (leaders.size - 1) }
    }
    assign.result()
  }

  /** Assign template-cluster ids to every page of a (single-site) corpus. */
  def assign(pages: Dataset[PageDoc], threshold: Double = Threshold)(implicit
      spark: SparkSession): Dataset[PageDoc] = {
    import spark.implicits._
    // Signature = index-stripped path + the node's class, so two templates
    // with the same skeleton but different markup vocabularies separate —
    // while sites that reuse generic class names across page types keep
    // colliding, as the paper's Vertex clustering did (§5.5.1).
    val sigs = pages
      .map(p => (p.pageId,
        p.nodes.map(n => XPaths.template(n.xpath) + "#" + n.attrs.getOrElse("class", "")).toSet.toSeq.sorted))
      .collect()
      .toVector
      .sortBy(_._1) // deterministic leader order
      .map { case (pid, s) => (pid, s.toSet) }
    val mapping = clusterSignatures(sigs, threshold)
    pages.map(p => p.copy(cluster = mapping(p.pageId)))
  }
}
