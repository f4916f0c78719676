package repro.dom

import repro.util.Normalize

/** One flattened DOM node of a page: the unit the classifier labels (§4).
  *
  * `xpath` is the absolute XPath (1-based index among same-tag siblings),
  * which uniquely identifies the node on its page (§2.1).  `parent` is the
  * id of the parent row (-1 for the root) so [[PageTree]] can rebuild the
  * tree for ancestor/sibling navigation without re-parsing.  `norm` is
  * [[repro.util.Normalize]] of `text`, computed once when the page is
  * flattened; every KB lookup and string feature reads it instead of
  * normalising `text` again.
  */
case class NodeRow(
    id: Int,
    parent: Int,
    tag: String,
    attrs: Map[String, String],
    text: String,
    xpath: String,
    norm: String,
)

/** A detail page as carried through the Spark pipeline: a `Dataset[PageDoc]`
  * is the corpus, and every per-page step (matching, annotation, feature
  * generation, extraction) runs over partitions of it.
  *
  * `cluster` is the template-cluster id assigned by
  * [[repro.cluster.TemplateClustering]]; -1 until clustering has run.
  */
case class PageDoc(site: String, pageId: String, cluster: Int, nodes: Vector[NodeRow]) {
  /** Leaf nodes carrying text — the candidate mention fields of the page. */
  def textNodes: Vector[NodeRow] = nodes.filter(_.text.nonEmpty)
}

object PageDoc {

  /** Flatten a [[DomNode]] tree into document-order rows with absolute
    * XPaths.  Sibling indices are computed per tag name, matching how
    * absolute XPaths address HTML (div[2] = second div child).
    */
  def fromTree(site: String, pageId: String, root: DomNode): PageDoc = {
    val rows = Vector.newBuilder[NodeRow]
    var nextId = 0
    def walk(n: DomNode, parent: Int, path: String): Unit = {
      val id = nextId
      nextId += 1
      rows += NodeRow(id, parent, n.tag, n.attrs, n.text, path, Normalize(n.text))
      val tagCount = collection.mutable.Map.empty[String, Int]
      n.children.foreach { c =>
        val k = tagCount.getOrElse(c.tag, 0) + 1
        tagCount(c.tag) = k
        walk(c, id, s"$path/${c.tag}[$k]")
      }
    }
    walk(root, -1, s"/${root.tag}[1]")
    PageDoc(site, pageId, cluster = -1, rows.result())
  }
}
